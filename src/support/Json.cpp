//===- support/Json.cpp ---------------------------------------*- C++ -*-===//

#include "support/Json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace alic;

namespace {

/// Recursive-descent parser over one null-terminated document.
class JsonParser {
public:
  explicit JsonParser(const char *Text) : P(Text) {}

  bool parse(JsonValue &Out) {
    if (!parseValue(Out, 0))
      return false;
    skipWs();
    return *P == '\0';
  }

private:
  void skipWs() {
    while (*P == ' ' || *P == '\t' || *P == '\r' || *P == '\n')
      ++P;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (std::strncmp(P, Word, Len) != 0)
      return false;
    P += Len;
    return true;
  }

  /// Consumes \p C if it comes next.
  bool eat(char C) {
    if (*P != C)
      return false;
    ++P;
    return true;
  }

  /// Skips the digit run at \p Q; false when there is none.
  static bool digits(const char *&Q) {
    const char *Start = Q;
    while (*Q >= '0' && *Q <= '9')
      ++Q;
    return Q != Start;
  }

  bool parseString(std::string &Out) {
    if (!eat('"'))
      return false;
    Out.clear();
    while (*P && *P != '"') {
      if (*P != '\\') {
        Out.push_back(*P++);
        continue;
      }
      switch (*++P) {
      case '"': Out.push_back('"'); break;
      case '\\': Out.push_back('\\'); break;
      case '/': Out.push_back('/'); break;
      case 'n': Out.push_back('\n'); break;
      case 't': Out.push_back('\t'); break;
      case 'r': Out.push_back('\r'); break;
      case 'b': Out.push_back('\b'); break;
      case 'f': Out.push_back('\f'); break;
      default: return false; // \uXXXX never appears in our documents
      }
      ++P;
    }
    return eat('"');
  }

  /// Deepest container nesting accepted.  Our documents nest 2-3 levels;
  /// the cap keeps a hostile socket line of 4 MiB of '[' from recursing
  /// the stack away.
  static constexpr unsigned MaxDepth = 64;

  bool parseValue(JsonValue &Out, unsigned Depth) {
    skipWs();
    if (Depth >= MaxDepth)
      return false;
    if (*P == '{' || *P == '[') {
      bool IsObject = *P++ == '{';
      char Close = IsObject ? '}' : ']';
      Out.K = IsObject ? JsonValue::Kind::Object : JsonValue::Kind::Array;
      skipWs();
      if (eat(Close))
        return true;
      do {
        std::string Key;
        if (IsObject) {
          skipWs();
          if (!parseString(Key))
            return false;
          skipWs();
          if (!eat(':'))
            return false;
        }
        JsonValue Value;
        if (!parseValue(Value, Depth + 1))
          return false;
        if (IsObject)
          Out.Fields.emplace_back(std::move(Key), std::move(Value));
        else
          Out.Items.push_back(std::move(Value));
        skipWs();
      } while (eat(','));
      return eat(Close);
    }
    if (*P == '"') {
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Str);
    }
    bool True = literal("true");
    if (True || literal("false")) {
      Out.K = JsonValue::Kind::Bool;
      Out.BoolValue = True;
      return true;
    }
    if (literal("null"))
      return true;
    // Strict JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?
    // [0-9]+)?.  strtod alone also accepts "nan", "inf"/"infinity", and
    // hex floats, none of which are JSON — scan the token shape first so
    // a hostile line cannot smuggle non-finite costs into the model.
    const char *Q = P;
    Q += *Q == '-';
    if (*Q == '0')
      ++Q;
    else if (*Q < '1' || *Q > '9' || !digits(Q))
      return false;
    if (*Q == '.' && !digits(++Q))
      return false;
    if (*Q == 'e' || *Q == 'E') {
      ++Q;
      Q += *Q == '+' || *Q == '-';
      if (!digits(Q))
        return false;
    }
    char *End = nullptr;
    double Number = std::strtod(P, &End);
    // End != Q would mean strtod read past the JSON token (e.g. "0x12");
    // overflow ("1e999") yields infinity, equally unrepresentable.
    if (End != Q || !std::isfinite(Number))
      return false;
    Out.K = JsonValue::Kind::Number;
    Out.Number = Number;
    P = Q;
    return true;
  }

  const char *P;
};

} // namespace

bool alic::parseJson(const char *Text, JsonValue &Out) {
  return JsonParser(Text).parse(Out);
}

std::string alic::formatJsonDouble(double Value) {
  return JsonWriter().number(Value).take();
}

bool alic::jsonInteger(const JsonValue &Value, uint64_t Max, uint64_t &Out) {
  if (Value.K != JsonValue::Kind::Number || !(Value.Number >= 0.0) ||
      Value.Number > double(std::min(Max, MaxExactJsonInteger)) ||
      Value.Number != std::floor(Value.Number))
    return false;
  Out = uint64_t(Value.Number);
  return true;
}

bool alic::jsonNumbers(const JsonValue &Value, std::vector<double> &Out) {
  if (Value.K != JsonValue::Kind::Array)
    return false;
  Out.clear();
  Out.reserve(Value.Items.size());
  for (const JsonValue &Item : Value.Items) {
    if (Item.K != JsonValue::Kind::Number)
      return false;
    Out.push_back(Item.Number);
  }
  return true;
}

void JsonReader::fail(std::string Message) {
  if (ok())
    Error = std::move(Message);
}

const JsonValue *JsonReader::find(const char *Name, Presence P,
                                  const char *Type) {
  const JsonValue *Field = ok() ? Object.field(Name) : nullptr;
  if (!Field && P == Required)
    fail(std::string("missing ") + Type + " field '" + Name + "'");
  return Field;
}

void JsonReader::wrongType(const char *Name, Presence P, const char *Type,
                           const std::string &Noun) {
  fail(P == Required ? std::string("missing ") + Type + " field '" + Name + "'"
                     : std::string("field '") + Name + "' must be " + Noun);
}

JsonReader &JsonReader::string(const char *Name, std::string &Out,
                               Presence P) {
  if (const JsonValue *Field = find(Name, P, "string")) {
    if (Field->K == JsonValue::Kind::String)
      Out = Field->Str;
    else
      wrongType(Name, P, "string", "a string");
  }
  return *this;
}

JsonReader &JsonReader::number(const char *Name, double &Out, Presence P) {
  if (const JsonValue *Field = find(Name, P, "numeric")) {
    if (Field->K == JsonValue::Kind::Number)
      Out = Field->Number;
    else
      wrongType(Name, P, "numeric", "a number");
  }
  return *this;
}

JsonReader &JsonReader::numbers(const char *Name, std::vector<double> &Out,
                                Presence P) {
  const JsonValue *Field = find(Name, P, "array");
  if (!Field || jsonNumbers(*Field, Out))
    return *this;
  if (Field->K == JsonValue::Kind::Array)
    fail(std::string("field '") + Name + "' must hold numbers only");
  else
    wrongType(Name, P, "array", "an array");
  return *this;
}

bool JsonReader::readInteger(const char *Name, uint64_t Max, uint64_t &Out,
                             Presence P) {
  const JsonValue *Field = find(Name, P, "numeric");
  if (!Field || jsonInteger(*Field, Max, Out))
    return Field != nullptr;
  std::string Domain = "an integer from 0 to " +
                       std::to_string(std::min(Max, MaxExactJsonInteger));
  if (Field->K == JsonValue::Kind::Number)
    fail(std::string("field '") + Name + "' must be " + Domain);
  else
    wrongType(Name, P, "numeric", Domain);
  return false;
}

JsonWriter &JsonWriter::key(const char *Name) {
  string(Name);
  Out.push_back(':');
  AfterValue = false;
  return *this;
}

JsonWriter &JsonWriter::string(const std::string &Text) {
  separate();
  Out.push_back('"');
  for (char C : Text) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    case '\b': Out += "\\b"; break;
    case '\f': Out += "\\f"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", C);
        Out += Buffer;
      } else {
        Out.push_back(C);
      }
    }
  }
  Out.push_back('"');
  return *this;
}

JsonWriter &JsonWriter::number(double Value) {
  separate();
  // JSON has no non-finite numbers; null (as JSON.stringify writes) keeps
  // the document valid where a bare nan/inf token would break it.
  if (!std::isfinite(Value)) {
    Out += "null";
    return *this;
  }
  char Buffer[32];
  Out.append(Buffer,
             std::to_chars(Buffer, Buffer + sizeof(Buffer), Value).ptr);
  return *this;
}

JsonWriter &JsonWriter::numbers(const std::vector<double> &Values) {
  beginArray();
  for (double Value : Values)
    number(Value);
  return endArray();
}

JsonWriter &JsonWriter::integer(uint64_t Value) {
  separate();
  char Buffer[24];
  Out.append(Buffer,
             std::to_chars(Buffer, Buffer + sizeof(Buffer), Value).ptr);
  return *this;
}

JsonWriter &JsonWriter::boolean(bool Value) {
  separate();
  Out += Value ? "true" : "false";
  return *this;
}
