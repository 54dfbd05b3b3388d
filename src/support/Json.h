//===- support/Json.h - The project's one-line JSON codec -----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-line JSON codec behind every line record in the project:
/// the serve wire (serve/Wire), the serve session journal
/// (serve/ServeEngine) and the campaign cell ledger (exp/Campaign).
/// parseJson() builds a JsonValue tree, JsonReader makes the typed,
/// checked reads of an object's fields, and JsonWriter renders one
/// compact document.  Doubles render in the shortest std::to_chars form,
/// which strtod parses back to the same bits, so checkpointed values
/// round-trip exactly.
///
/// Deliberately not a general JSON library: no streaming, no \\uXXXX
/// escapes on input (no producer of ours needs them), finite numbers in
/// the JSON grammar only, and nesting capped, because the wire reads
/// untrusted sockets.  Anything unparsable is a crash remnant or a
/// protocol error, which the caller skips or rejects.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_JSON_H
#define ALIC_SUPPORT_JSON_H

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace alic {

/// One parsed JSON value (a small recursive variant).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;         ///< type of this value
  bool BoolValue = false;      ///< payload of Kind::Bool
  double Number = 0.0;         ///< payload of Kind::Number
  std::string Str;             ///< payload of Kind::String
  std::vector<JsonValue> Items; ///< payload of Kind::Array, in order
  /// Payload of Kind::Object, in document order (duplicate keys are
  /// kept; field() returns the first).
  std::vector<std::pair<std::string, JsonValue>> Fields;

  /// First field named \p Name, or nullptr.  Object values only.
  const JsonValue *field(const char *Name) const {
    for (const auto &[Key, Value] : Fields)
      if (Key == Name)
        return &Value;
    return nullptr;
  }
};

/// Parses the whole of \p Text as one JSON document into \p Out.  Returns
/// false on any syntax error or trailing garbage (whitespace excepted),
/// on numbers outside the JSON grammar or non-finite after conversion
/// (nan/inf/hex floats), and on container nesting deeper than 64 levels.
bool parseJson(const char *Text, JsonValue &Out);

/// Shortest decimal rendering of \p Value that strtod parses back to the
/// same IEEE-754 bits; non-finite input renders as "null".
std::string formatJsonDouble(double Value);

/// Largest integer a JSON number carries exactly: 2^53 itself is also
/// what 2^53 + 1 parses to.  Larger integers travel as decimal strings.
constexpr uint64_t MaxExactJsonInteger = (uint64_t(1) << 53) - 1;

/// Reads \p Value as an integer from 0 to min(\p Max, MaxExactJsonInteger)
/// into \p Out; false for anything else (a fraction, say).
bool jsonInteger(const JsonValue &Value, uint64_t Max, uint64_t &Out);

/// Reads \p Value as an array holding numbers only into \p Out.
bool jsonNumbers(const JsonValue &Value, std::vector<double> &Out);

/// Typed, checked reads of one object's fields.  A read fills its output
/// or fails; the first failure sticks (later reads leave their outputs
/// alone), and error() names it:
///  * a Required field absent or of the wrong type: "missing <type>
///    field 'X'" (type: string, numeric, array);
///  * an Optional field of the wrong type: "field 'X' must be a string";
///  * a value outside its domain: "field 'X' must be an integer from 0
///    to N" or "field 'X' must hold numbers only".
class JsonReader {
public:
  /// Whether a read fails when its field is absent (an absent Optional
  /// field keeps its output).
  enum Presence { Required, Optional };

  /// Reads the fields of \p Object, which must outlive the reader.
  explicit JsonReader(const JsonValue &Object) : Object(Object) {}

  JsonReader &string(const char *Name, std::string &Out,
                     Presence P = Required);
  JsonReader &number(const char *Name, double &Out, Presence P = Required);
  JsonReader &numbers(const char *Name, std::vector<double> &Out,
                      Presence P = Required);
  /// An exact integer up to the largest \p UIntT a JSON number carries.
  template <typename UIntT>
  JsonReader &integer(const char *Name, UIntT &Out, Presence P = Required) {
    uint64_t Value = 0;
    if (readInteger(Name, std::numeric_limits<UIntT>::max(), Value, P))
      Out = UIntT(Value);
    return *this;
  }

  /// Fails the reader with \p Message, unless it failed already.
  void fail(std::string Message);
  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }

private:
  /// The field to read, or nullptr when the reader failed already or the
  /// field is absent (failing a Required one).
  const JsonValue *find(const char *Name, Presence P, const char *Type);
  /// Fails a field present with the wrong type: a Required one as
  /// missing, an Optional one as "must be \p Noun".
  void wrongType(const char *Name, Presence P, const char *Type,
                 const std::string &Noun);
  bool readInteger(const char *Name, uint64_t Max, uint64_t &Out,
                   Presence P);

  const JsonValue &Object;
  std::string Error;
};

/// Renders one compact JSON document; the writer places the commas.
/// Inside an object every value follows its key():
///
///   JsonWriter W;
///   W.beginObject().key("ok").boolean(true).key("n").integer(3);
///   std::string Line = W.endObject().take(); // {"ok":true,"n":3}
class JsonWriter {
public:
  JsonWriter &beginObject() { return open('{'); }
  JsonWriter &endObject() { return close('}'); }
  JsonWriter &beginArray() { return open('['); }
  JsonWriter &endArray() { return close(']'); }
  JsonWriter &key(const char *Name);
  /// Escapes quote, backslash and control characters.
  JsonWriter &string(const std::string &Text);
  /// The formatJsonDouble form.
  JsonWriter &number(double Value);
  JsonWriter &numbers(const std::vector<double> &Values);
  JsonWriter &integer(uint64_t Value);
  JsonWriter &boolean(bool Value);

  const std::string &text() const { return Out; }
  std::string take() { return std::move(Out); }

private:
  /// Emits the comma owed to the previous value, if any; the value about
  /// to be written owes one to the next.
  void separate() {
    if (AfterValue)
      Out.push_back(',');
    AfterValue = true;
  }
  JsonWriter &open(char Bracket) {
    separate();
    Out.push_back(Bracket);
    AfterValue = false;
    return *this;
  }
  JsonWriter &close(char Bracket) {
    Out.push_back(Bracket);
    AfterValue = true;
    return *this;
  }

  std::string Out;
  bool AfterValue = false;
};

} // namespace alic

#endif // ALIC_SUPPORT_JSON_H
