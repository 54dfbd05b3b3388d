//===- serve/Wire.cpp -----------------------------------------*- C++ -*-===//

#include "serve/Wire.h"

#include "exp/Campaign.h"
#include "serve/ServeEngine.h"
#include "support/Json.h"

using namespace alic;

std::string alic::errorReply(const std::string &Message) {
  JsonWriter W;
  return W.beginObject().key("ok").boolean(false).key("error")
      .string(Message).endObject().take();
}

namespace {

const char *phaseToken(SuggestPhase Phase) {
  static const char *const Tokens[] = {"explore", "refine", "skip", "done"};
  return Tokens[size_t(Phase)];
}

/// Parses the optional `spec` object of an `open` request into \p Spec
/// (fields missing from the wire keep their SessionSpec defaults).
bool parseSpec(const JsonValue &Root, SessionSpec &Spec, std::string &Err) {
  const JsonValue *S = Root.field("spec");
  if (!S)
    return true;
  if (S->K != JsonValue::Kind::Object) {
    Err = "field 'spec' must be an object";
    return false;
  }
  constexpr JsonReader::Presence Optional = JsonReader::Optional;
  JsonReader Fields(*S);
  Fields.string("benchmark", Spec.Benchmark, Optional);
  // Model, scorer, plan and policy travel in their campaign token forms
  // (exp/Campaign.h, core/QueryPolicy.h); empty or absent keeps the
  // default, and \p Want lists the accepted forms.
  auto Token = [&](const char *Name, auto &Out, auto Parse, const char *Want) {
    std::string T;
    if (Fields.string(Name, T, Optional).ok() && !T.empty() && !Parse(T, Out))
      Fields.fail(std::string("unknown ") + Name + " '" + T + "' (want " +
                  Want + ")");
  };
  Token("model", Spec.Model, parseModelToken, "dynatree|gp|gp_sor");
  Token("scorer", Spec.Scorer, parseScorerToken, "alc|alm|random");
  Token("plan", Spec.Plan, parsePlanToken, "seq:<cap>|fixed:<obs>");
  Token("policy", Spec.Query, parseQueryPolicy,
        "always|alm[:abs[:rel]]|cost[:c0[:c1]]");
  Fields.integer("batch", Spec.BatchSize, Optional)
      .integer("seed", Spec.Seed, Optional)
      .integer("dataset_seed", Spec.DatasetSeed, Optional)
      .integer("max_examples", Spec.Scale.MaxTrainingExamples, Optional);
  if (Spec.Scale.MaxTrainingExamples == 0)
    Fields.fail("field 'max_examples' must be positive");
  Err = Fields.error();
  return Fields.ok();
}

/// Field \p Name: configurations, each an array of parameter ordinals.
void writeConfigs(JsonWriter &W, const char *Name,
                  const std::vector<Config> &Configs) {
  W.key(Name).beginArray();
  for (const Config &C : Configs) {
    W.beginArray();
    for (uint16_t Ordinal : C)
      W.integer(Ordinal);
    W.endArray();
  }
  W.endArray();
}

/// Runs one request against \p Engine.  On success \p W holds the reply
/// object's fields after `"ok":true`; on failure \p Err says why.
/// Sets \p Shutdown for an accepted `shutdown`.
bool dispatch(ServeEngine &Engine, const std::string &Line, JsonWriter &W,
              bool &Shutdown, std::string &Err) {
  JsonValue Root;
  if (!parseJson(Line.c_str(), Root) || Root.K != JsonValue::Kind::Object) {
    Err = "malformed request (want one JSON object per line)";
    return false;
  }
  JsonReader Request(Root);
  std::string Op, Id;
  uint64_t Ticket = 0;
  std::vector<double> Costs;
  if (Request.string("op", Op).ok() && Op != "ping" && Op != "shutdown")
    Request.string("session", Id);
  if (Op == "observe")
    Request.integer("ticket", Ticket).numbers("costs", Costs);
  if (!Request.ok()) {
    Err = Request.error();
    return false;
  }

  if (Op == "ping") {
    W.key("sessions").integer(Engine.sessionCount());
    return true;
  }
  if (Op == "shutdown") {
    W.key("bye").boolean(true);
    Shutdown = true;
    return true;
  }

  if (Op == "open") {
    SessionSpec Spec;
    if (!parseSpec(Root, Spec, Err) || !Engine.openSession(Id, Spec, Err))
      return false;
    W.key("session").string(Id);
    return true;
  }

  if (Op == "suggest") {
    Suggestion S;
    if (!Engine.suggest(Id, S, Err))
      return false;
    W.key("phase").string(phaseToken(S.Phase));
    W.key("ticket").integer(S.Ticket);
    W.key("observations_per_config").integer(S.ObservationsPerConfig);
    writeConfigs(W, "configs", S.Configs);
    // Declined picks ride along so clients can see (and log) every skip
    // decision; they must not be measured, and costs pair with "configs"
    // only.  Always empty under the default Always policy.
    writeConfigs(W, "skipped", S.Skipped);
    return true;
  }

  if (Op == "observe") {
    SessionInfo Info;
    if (!Engine.observe(Id, Ticket, Costs, Err))
      return false;
    size_t Observes = Engine.sessionInfo(Id, Info, Err) ? Info.Observes : 0;
    W.key("observes").integer(Observes);
    return true;
  }

  if (Op == "info") {
    SessionInfo Info;
    if (!Engine.sessionInfo(Id, Info, Err))
      return false;
    const LearnerStats &Stats = Info.Stats;
    W.key("phase").string(phaseToken(Info.Phase));
    W.key("iterations").integer(Stats.Iterations);
    W.key("distinct").integer(Stats.DistinctExamples);
    W.key("revisits").integer(Stats.Revisits);
    W.key("observations").integer(Stats.Observations);
    // queries + skips = refine picks consumed (iterations): how many the
    // query policy labelled vs declined.
    W.key("queries").integer(Stats.Iterations - Stats.Skips);
    W.key("skips").integer(Stats.Skips);
    W.key("observes").integer(Info.Observes);
    W.key("total_cost_seconds").number(Info.TotalCostSeconds);
    W.key("done").boolean(Info.Done);
    W.key("snapshot_dirty").boolean(Info.SnapshotDirty);
    return true;
  }

  if (Op == "eval") {
    double Rmse = 0.0;
    if (!Engine.evaluate(Id, Rmse, Err))
      return false;
    W.key("rmse").number(Rmse);
    return true;
  }

  if (Op == "close") {
    if (!Engine.closeSession(Id)) {
      Err = "unknown session '" + Id + "'";
      return false;
    }
    return true;
  }

  Err = "unknown op '" + Op + "'";
  return false;
}

} // namespace

bool alic::handleRequestLine(ServeEngine &Engine, const std::string &Line,
                             std::string &Reply) {
  JsonWriter W;
  W.beginObject().key("ok").boolean(true);
  bool Shutdown = false;
  std::string Err;
  if (!dispatch(Engine, Line, W, Shutdown, Err)) {
    Reply = errorReply(Err);
    return false;
  }
  Reply = W.endObject().take();
  return Shutdown;
}
