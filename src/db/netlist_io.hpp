#pragma once
// Plain-text netlist serialization ("bookshelf-lite"). One file carries the
// floorplan, cells, pins, nets, rows, and PG rails, so a generated benchmark
// can be saved, diffed, and re-loaded deterministically.
//
// Format (line oriented, '#' comments):
//   design <name>
//   region <lx> <ly> <hx> <hy>
//   rowheight <h>
//   sitewidth <w>
//   cell <name> <kind:mov|fix|mac> <w> <h> <cx> <cy>
//   pin <cellIndex> <dx> <dy>
//   net <name> <weight> <pinIndex> <pinIndex> ...
//   rail <h|v> <lx> <ly> <hx> <hy>
//   blockage <lx> <ly> <hx> <hy>

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "db/design.hpp"

namespace rdp {

/// Typed parse failure: carries the 1-based input line and the reason.
/// Derives from std::runtime_error, so callers that only care about
/// "malformed input" keep working; what() reads
///   netlist_io: <reason> at line <line>
class ParseError : public std::runtime_error {
public:
    ParseError(int line, const std::string& reason);

    int line() const { return line_; }
    const std::string& reason() const { return reason_; }

private:
    int line_;
    std::string reason_;
};

/// Largest design read_design accepts. A region with more than kMaxRows
/// rows (region height / rowheight) or more than kMaxSitesPerRow sites per
/// row (region width / sitewidth) is refused at parse time, before any
/// per-row structure is sized by it. Both caps are far above any real die
/// (a 20 mm die with 0.2 um rows has 1e5 rows).
inline constexpr int kMaxRows = 1 << 20;
inline constexpr int kMaxSitesPerRow = 1 << 24;

void write_design(const Design& d, std::ostream& os);
void write_design_file(const Design& d, const std::string& path);

/// Parses a design; throws ParseError naming the offending line on any
/// malformed input: unknown directives, missing or trailing fields,
/// non-finite numbers, non-positive dimensions, inverted regions,
/// out-of-range cell/pin indices, doubly-connected pins, and regions over
/// kMaxRows rows or kMaxSitesPerRow sites per row.
Design read_design(std::istream& is);
Design read_design_file(const std::string& path);

}  // namespace rdp
