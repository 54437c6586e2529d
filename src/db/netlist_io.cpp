#include "db/netlist_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/io_atomic.hpp"

namespace rdp {

ParseError::ParseError(int line, const std::string& reason)
    : std::runtime_error("netlist_io: " + reason + " at line " +
                         std::to_string(line)),
      line_(line),
      reason_(reason) {}

namespace {
const char* kind_tag(CellKind k) {
    switch (k) {
        case CellKind::Movable: return "mov";
        case CellKind::Fixed: return "fix";
        case CellKind::Macro: return "mac";
    }
    return "mov";
}

/// A row or site count for a diagnostic: exact while it fits an integer.
std::string count_text(double n) {
    if (n < 1e18) return std::to_string(static_cast<long long>(n));
    std::ostringstream os;
    os << n;
    return os.str();
}

CellKind parse_kind(const std::string& s, int line) {
    if (s == "mov") return CellKind::Movable;
    if (s == "fix") return CellKind::Fixed;
    if (s == "mac") return CellKind::Macro;
    throw ParseError(line, "bad cell kind '" + s + "'");
}
}  // namespace

void write_design(const Design& d, std::ostream& os) {
    // Round-trip exactness: every double survives write -> read bitwise.
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "design " << d.name << "\n";
    os << "region " << d.region.lx << " " << d.region.ly << " " << d.region.hx
       << " " << d.region.hy << "\n";
    os << "rowheight " << d.row_height << "\n";
    os << "sitewidth " << d.site_width << "\n";
    for (const Cell& c : d.cells) {
        os << "cell " << c.name << " " << kind_tag(c.kind) << " " << c.width
           << " " << c.height << " " << c.pos.x << " " << c.pos.y << "\n";
    }
    for (const Pin& p : d.pins) {
        os << "pin " << p.cell << " " << p.offset.x << " " << p.offset.y
           << "\n";
    }
    for (const Net& n : d.nets) {
        os << "net " << n.name << " " << n.weight;
        for (int p : n.pins) os << " " << p;
        os << "\n";
    }
    for (const PGRail& r : d.pg_rails) {
        os << "rail " << (r.orient == Orient::Horizontal ? "h" : "v") << " "
           << r.box.lx << " " << r.box.ly << " " << r.box.hx << " " << r.box.hy
           << "\n";
    }
    for (const Rect& b : d.routing_blockages) {
        os << "blockage " << b.lx << " " << b.ly << " " << b.hx << " " << b.hy
           << "\n";
    }
}

void write_design_file(const Design& d, const std::string& path) {
    // Serialize to memory, then publish with one atomic rename: a crash
    // (or a concurrent reader) can never observe a torn design file.
    std::ostringstream os;
    write_design(d, os);
    std::string err;
    if (!io::atomic_write(path, os.str(), &err))
        throw std::runtime_error("netlist_io: cannot write " + path + " (" +
                                 err + ")");
}

Design read_design(std::istream& is) {
    Design d;
    std::string line;
    int line_no = 0;
    // Lines of the directives the size limits read (0 = not given).
    int region_line = 0, rowheight_line = 0, sitewidth_line = 0;
    auto fail = [&](const std::string& msg) {
        throw ParseError(line_no, msg);
    };
    auto finite = [&](double v, const char* what) {
        if (!std::isfinite(v)) fail(std::string("non-finite ") + what);
    };
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ss(line);
        std::string tok;
        ss >> tok;
        if (tok == "design") {
            ss >> d.name;
        } else if (tok == "region") {
            if (!(ss >> d.region.lx >> d.region.ly >> d.region.hx >>
                  d.region.hy))
                fail("bad region");
            finite(d.region.lx, "region coordinate");
            finite(d.region.ly, "region coordinate");
            finite(d.region.hx, "region coordinate");
            finite(d.region.hy, "region coordinate");
            if (d.region.hx <= d.region.lx || d.region.hy <= d.region.ly)
                fail("region has non-positive extent");
            region_line = line_no;
        } else if (tok == "rowheight") {
            if (!(ss >> d.row_height)) fail("bad rowheight");
            if (!std::isfinite(d.row_height) || d.row_height <= 0.0)
                fail("rowheight must be finite and positive");
            rowheight_line = line_no;
        } else if (tok == "sitewidth") {
            if (!(ss >> d.site_width)) fail("bad sitewidth");
            if (!std::isfinite(d.site_width) || d.site_width <= 0.0)
                fail("sitewidth must be finite and positive");
            sitewidth_line = line_no;
        } else if (tok == "cell") {
            std::string nm, kind;
            double w, h, cx, cy;
            if (!(ss >> nm >> kind >> w >> h >> cx >> cy)) fail("bad cell");
            finite(w, "cell width");
            finite(h, "cell height");
            finite(cx, "cell position");
            finite(cy, "cell position");
            if (w < 0.0 || h < 0.0) fail("negative cell dimensions");
            d.add_cell(nm, w, h, parse_kind(kind, line_no), {cx, cy});
        } else if (tok == "pin") {
            int cell;
            double dx, dy;
            if (!(ss >> cell >> dx >> dy)) fail("bad pin");
            if (cell < 0 || cell >= d.num_cells()) fail("pin on missing cell");
            finite(dx, "pin offset");
            finite(dy, "pin offset");
            d.add_pin(cell, {dx, dy});
        } else if (tok == "net") {
            std::string nm;
            double wgt;
            if (!(ss >> nm >> wgt)) fail("bad net");
            if (!std::isfinite(wgt) || wgt < 0.0)
                fail("net weight must be finite and non-negative");
            const int net = d.add_net(nm, wgt);
            int pin;
            while (ss >> pin) {
                if (pin < 0 || pin >= d.num_pins()) fail("net on missing pin");
                if (d.pins[static_cast<size_t>(pin)].net != -1)
                    fail("pin " + std::to_string(pin) +
                         " is already connected");
                d.connect(net, pin);
            }
            if (!ss.eof()) fail("bad pin index");
        } else if (tok == "blockage") {
            Rect b;
            if (!(ss >> b.lx >> b.ly >> b.hx >> b.hy)) fail("bad blockage");
            finite(b.lx, "blockage coordinate");
            finite(b.ly, "blockage coordinate");
            finite(b.hx, "blockage coordinate");
            finite(b.hy, "blockage coordinate");
            d.routing_blockages.push_back(b);
        } else if (tok == "rail") {
            std::string o;
            Rect b;
            if (!(ss >> o >> b.lx >> b.ly >> b.hx >> b.hy)) fail("bad rail");
            if (o != "h" && o != "v")
                fail("bad rail orientation '" + o + "'");
            finite(b.lx, "rail coordinate");
            finite(b.ly, "rail coordinate");
            finite(b.hx, "rail coordinate");
            finite(b.hy, "rail coordinate");
            PGRail r;
            r.box = b;
            r.orient = (o == "h") ? Orient::Horizontal : Orient::Vertical;
            d.pg_rails.push_back(r);
        } else {
            fail("unknown directive '" + tok + "'");
        }
    }
    // Size limits, checked against the line that completed the size.
    const double rows = std::floor(d.region.height() / d.row_height);
    if (rows > kMaxRows)
        throw ParseError(std::max(region_line, rowheight_line),
                         "region holds " + count_text(rows) +
                             " rows, over the limit of " +
                             std::to_string(kMaxRows));
    const double sites = std::floor(d.region.width() / d.site_width);
    if (sites > kMaxSitesPerRow)
        throw ParseError(std::max(region_line, sitewidth_line),
                         "region holds " + count_text(sites) +
                             " sites per row, over the limit of " +
                             std::to_string(kMaxSitesPerRow));
    d.build_rows();
    return d;
}

Design read_design_file(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("netlist_io: cannot open " + path);
    return read_design(is);
}

}  // namespace rdp
