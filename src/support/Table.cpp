//===- support/Table.cpp --------------------------------------*- C++ -*-===//

#include "support/Table.h"

#include "support/Error.h"
#include "support/Format.h"
#include "support/Serialize.h"

#include <algorithm>
#include <cassert>

using namespace alic;

Table::Table(std::vector<std::string> Headers) : Headers(std::move(Headers)) {
  assert(!this->Headers.empty() && "table needs at least one column");
}

void Table::addRow(std::vector<std::string> Cells) {
  assert(Cells.size() == Headers.size() && "row width != header width");
  Rows.push_back(std::move(Cells));
}

void Table::print(std::FILE *Out) const {
  std::vector<size_t> Widths(Headers.size());
  for (size_t C = 0; C != Headers.size(); ++C)
    Widths[C] = Headers[C].size();
  for (const auto &Row : Rows)
    for (size_t C = 0; C != Row.size(); ++C)
      Widths[C] = std::max(Widths[C], Row[C].size());

  auto printRow = [&](const std::vector<std::string> &Cells) {
    for (size_t C = 0; C != Cells.size(); ++C)
      std::fprintf(Out, "%s%s", C ? "  " : "",
                   padLeft(Cells[C], Widths[C]).c_str());
    std::fprintf(Out, "\n");
  };

  printRow(Headers);
  size_t Total = 0;
  for (size_t C = 0; C != Widths.size(); ++C)
    Total += Widths[C] + (C ? 2 : 0);
  std::string Rule(Total, '-');
  std::fprintf(Out, "%s\n", Rule.c_str());
  for (const auto &Row : Rows)
    printRow(Row);
}

static std::string csvEscape(const std::string &Cell) {
  if (Cell.find_first_of(",\"\n") == std::string::npos)
    return Cell;
  std::string Out = "\"";
  for (char Ch : Cell) {
    if (Ch == '"')
      Out += '"';
    Out += Ch;
  }
  Out += '"';
  return Out;
}

std::string Table::toCsv() const {
  std::string Out;
  auto appendRow = [&](const std::vector<std::string> &Cells) {
    for (size_t C = 0; C != Cells.size(); ++C) {
      if (C)
        Out += ',';
      Out += csvEscape(Cells[C]);
    }
    Out += '\n';
  };
  appendRow(Headers);
  for (const auto &Row : Rows)
    appendRow(Row);
  return Out;
}

bool Table::writeCsv(const std::string &Path) const {
  return writeTextFile(Path, toCsv());
}

void alic::printBanner(const std::string &Title, std::FILE *Out) {
  std::string Line = "== " + Title + " ==";
  std::fprintf(Out, "\n%s\n", Line.c_str());
}
