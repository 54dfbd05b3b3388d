//===- support/Format.cpp -------------------------------------*- C++ -*-===//

#include "support/Format.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace alic;

std::string alic::formatString(const char *Fmt, ...) {
  std::va_list Args;
  va_start(Args, Fmt);
  std::va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string alic::formatPaperNumber(double Value) {
  if (Value == 0.0)
    return "0";
  double Mag = std::fabs(Value);
  if (Mag >= 1e4 || Mag < 1e-3) {
    int Exp = static_cast<int>(std::floor(std::log10(Mag)));
    double Mant = Value / std::pow(10.0, Exp);
    return formatString("%.2fe%d", Mant, Exp);
  }
  if (Mag >= 10.0)
    return formatString("%.2f", Value);
  return formatString("%.3f", Value);
}

std::string alic::formatSeconds(double Seconds) {
  double Mag = std::fabs(Seconds);
  if (Mag < 1e-6)
    return formatString("%.1f ns", Seconds * 1e9);
  if (Mag < 1e-3)
    return formatString("%.1f us", Seconds * 1e6);
  if (Mag < 1.0)
    return formatString("%.1f ms", Seconds * 1e3);
  if (Mag < 120.0)
    return formatString("%.2f s", Seconds);
  if (Mag < 7200.0)
    return formatString("%.1f min", Seconds / 60.0);
  return formatString("%.1f h", Seconds / 3600.0);
}

std::string alic::joinStrings(const std::vector<std::string> &Parts,
                              const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string alic::padLeft(const std::string &Text, size_t Width) {
  if (Text.size() >= Width)
    return Text;
  return std::string(Width - Text.size(), ' ') + Text;
}

std::string alic::padRight(const std::string &Text, size_t Width) {
  if (Text.size() >= Width)
    return Text;
  return Text + std::string(Width - Text.size(), ' ');
}

bool alic::parseDecimal(const std::string &Text, uint64_t Max, uint64_t &Out) {
  if (Text.empty() || Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  unsigned long long Value = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE || Value > Max)
    return false;
  Out = Value;
  return true;
}
