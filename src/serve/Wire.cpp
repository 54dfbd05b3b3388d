//===- serve/Wire.cpp -----------------------------------------*- C++ -*-===//

#include "serve/Wire.h"

#include "exp/Campaign.h"
#include "serve/ServeEngine.h"
#include "support/Json.h"

using namespace alic;

std::string alic::errorReply(const std::string &Message) {
  return "{\"ok\":false,\"error\":\"" + jsonEscape(Message) + "\"}";
}

namespace {

const char *phaseToken(SuggestPhase Phase) {
  switch (Phase) {
  case SuggestPhase::Explore:
    return "explore";
  case SuggestPhase::Refine:
    return "refine";
  case SuggestPhase::Skip:
    return "skip";
  case SuggestPhase::Done:
    return "done";
  }
  return "done";
}

/// Reads an optional field; true when absent (keeping the default) or
/// present with the right type, false on a type/value error.
bool optionalString(const JsonValue &Obj, const char *Name, std::string &Out,
                    std::string &Err) {
  const JsonValue *F = Obj.field(Name);
  if (!F)
    return true;
  if (F->K != JsonValue::Kind::String) {
    Err = std::string("field '") + Name + "' must be a string";
    return false;
  }
  Out = F->Str;
  return true;
}

bool optionalU64(const JsonValue &Obj, const char *Name, uint64_t &Out,
                 std::string &Err) {
  const JsonValue *F = Obj.field(Name);
  if (!F)
    return true;
  if (F->K != JsonValue::Kind::Number || F->Number < 0) {
    Err = std::string("field '") + Name + "' must be a non-negative number";
    return false;
  }
  Out = uint64_t(F->Number);
  return true;
}

/// Reads an optional token field through \p Parse; an empty or absent
/// field keeps the default.  \p Want lists the accepted forms.
template <typename ParseT>
bool optionalToken(const JsonValue &Obj, const char *Name, ParseT Parse,
                   const char *Want, std::string &Err) {
  std::string Token;
  if (!optionalString(Obj, Name, Token, Err))
    return false;
  if (Token.empty() || Parse(Token))
    return true;
  Err = std::string("unknown ") + Name + " '" + Token + "' (want " + Want + ")";
  return false;
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
  if (!optionalString(*S, "benchmark", Spec.Benchmark, Err))
    return false;

  // Model, scorer, plan and policy travel in their campaign token forms
  // (exp/Campaign.h, core/QueryPolicy.h).
  auto ToModel = [&](const std::string &T) {
    return parseModelToken(T, Spec.Model);
  };
  auto ToScorer = [&](const std::string &T) {
    return parseScorerToken(T, Spec.Scorer);
  };
  auto ToPlan = [&](const std::string &T) {
    return parsePlanToken(T, Spec.Plan);
  };
  auto ToPolicy = [&](const std::string &T) {
    return parseQueryPolicy(T, Spec.Query);
  };
  if (!optionalToken(*S, "model", ToModel, "dynatree|gp|gp_sor", Err) ||
      !optionalToken(*S, "scorer", ToScorer, "alc|alm|random", Err) ||
      !optionalToken(*S, "plan", ToPlan, "seq:<cap>|fixed:<obs>", Err) ||
      !optionalToken(*S, "policy", ToPolicy,
                     "always|alm[:abs[:rel]]|cost[:c0[:c1]]", Err))
    return false;

  uint64_t Batch = Spec.BatchSize;
  if (!optionalU64(*S, "batch", Batch, Err))
    return false;
  Spec.BatchSize = unsigned(Batch);
  if (!optionalU64(*S, "seed", Spec.Seed, Err))
    return false;
  if (!optionalU64(*S, "dataset_seed", Spec.DatasetSeed, Err))
    return false;
  uint64_t MaxExamples = Spec.Scale.MaxTrainingExamples;
  if (!optionalU64(*S, "max_examples", MaxExamples, Err))
    return false;
  if (MaxExamples == 0) {
    Err = "field 'max_examples' must be positive";
    return false;
  }
  Spec.Scale.MaxTrainingExamples = unsigned(MaxExamples);
  return true;
}

void appendConfigArray(std::string &Reply, const std::vector<Config> &Configs) {
  for (size_t I = 0; I != Configs.size(); ++I) {
    if (I)
      Reply += ",";
    Reply += "[";
    for (size_t J = 0; J != Configs[I].size(); ++J) {
      if (J)
        Reply += ",";
      Reply += std::to_string(Configs[I][J]);
    }
    Reply += "]";
  }
}

std::string suggestionReply(const Suggestion &S) {
  std::string Reply = "{\"ok\":true,\"phase\":\"";
  Reply += phaseToken(S.Phase);
  Reply += "\",\"ticket\":" + std::to_string(S.Ticket);
  Reply +=
      ",\"observations_per_config\":" + std::to_string(S.ObservationsPerConfig);
  Reply += ",\"configs\":[";
  appendConfigArray(Reply, S.Configs);
  // Declined picks ride along so clients can see (and log) every skip
  // decision; they must not be measured, and costs pair with "configs"
  // only.  Always empty under the default Always policy.
  Reply += "],\"skipped\":[";
  appendConfigArray(Reply, S.Skipped);
  Reply += "]}";
  return Reply;
}

} // namespace

bool alic::handleRequestLine(ServeEngine &Engine, const std::string &Line,
                             std::string &Reply) {
  JsonValue Root;
  if (!parseJson(Line.c_str(), Root) || Root.K != JsonValue::Kind::Object) {
    Reply = errorReply("malformed request (want one JSON object per line)");
    return false;
  }
  std::string Op;
  if (!jsonStringField(Root, "op", Op)) {
    Reply = errorReply("missing string field 'op'");
    return false;
  }

  if (Op == "ping") {
    Reply = "{\"ok\":true,\"sessions\":" +
            std::to_string(Engine.sessionCount()) + "}";
    return false;
  }
  if (Op == "shutdown") {
    Reply = "{\"ok\":true,\"bye\":true}";
    return true;
  }

  std::string Id;
  if (!jsonStringField(Root, "session", Id)) {
    Reply = errorReply("missing string field 'session'");
    return false;
  }
  std::string Err;

  if (Op == "open") {
    SessionSpec Spec;
    if (!parseSpec(Root, Spec, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    if (!Engine.openSession(Id, Spec, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    Reply = "{\"ok\":true,\"session\":\"" + jsonEscape(Id) + "\"}";
    return false;
  }

  if (Op == "suggest") {
    Suggestion S;
    if (!Engine.suggest(Id, S, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    Reply = suggestionReply(S);
    return false;
  }

  if (Op == "observe") {
    double TicketNumber = -1.0;
    if (!jsonNumberField(Root, "ticket", TicketNumber) || TicketNumber < 0) {
      Reply = errorReply("missing numeric field 'ticket'");
      return false;
    }
    const JsonValue *CostsField = Root.field("costs");
    if (!CostsField || CostsField->K != JsonValue::Kind::Array) {
      Reply = errorReply("missing array field 'costs'");
      return false;
    }
    std::vector<double> Costs;
    Costs.reserve(CostsField->Items.size());
    for (const JsonValue &Item : CostsField->Items) {
      if (Item.K != JsonValue::Kind::Number) {
        Reply = errorReply("field 'costs' must hold numbers only");
        return false;
      }
      Costs.push_back(Item.Number);
    }
    if (!Engine.observe(Id, uint64_t(TicketNumber), Costs, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    SessionInfo Info;
    size_t Observes = Engine.sessionInfo(Id, Info, Err) ? Info.Observes : 0;
    Reply = "{\"ok\":true,\"observes\":" + std::to_string(Observes) + "}";
    return false;
  }

  if (Op == "info") {
    SessionInfo Info;
    if (!Engine.sessionInfo(Id, Info, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    Reply = "{\"ok\":true,\"phase\":\"";
    Reply += phaseToken(Info.Phase);
    Reply += "\",\"iterations\":" + std::to_string(Info.Stats.Iterations);
    Reply += ",\"distinct\":" + std::to_string(Info.Stats.DistinctExamples);
    Reply += ",\"revisits\":" + std::to_string(Info.Stats.Revisits);
    Reply += ",\"observations\":" + std::to_string(Info.Stats.Observations);
    // queries + skips = refine picks consumed (iterations): how many the
    // query policy labelled vs declined.
    Reply += ",\"queries\":" +
             std::to_string(Info.Stats.Iterations - Info.Stats.Skips);
    Reply += ",\"skips\":" + std::to_string(Info.Stats.Skips);
    Reply += ",\"observes\":" + std::to_string(Info.Observes);
    Reply += ",\"total_cost_seconds\":" + formatJsonDouble(Info.TotalCostSeconds);
    Reply += std::string(",\"done\":") + (Info.Done ? "true" : "false");
    Reply += std::string(",\"snapshot_dirty\":") +
             (Info.SnapshotDirty ? "true" : "false");
    Reply += "}";
    return false;
  }

  if (Op == "eval") {
    double Rmse = 0.0;
    if (!Engine.evaluate(Id, Rmse, Err)) {
      Reply = errorReply(Err);
      return false;
    }
    Reply = "{\"ok\":true,\"rmse\":" + formatJsonDouble(Rmse) + "}";
    return false;
  }

  if (Op == "close") {
    if (!Engine.closeSession(Id)) {
      Reply = errorReply("unknown session '" + Id + "'");
      return false;
    }
    Reply = "{\"ok\":true}";
    return false;
  }

  Reply = errorReply("unknown op '" + Op + "'");
  return false;
}
