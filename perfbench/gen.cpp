// perfbench_gen — seeded inputs and reference tallies for the end-to-end
// benchmark.
//
// Usage: perfbench_gen <capture_batch|pop_live|ddos_churn> <seed> <outdir>
//
// Writes into <outdir>:
//   input.pcap | input.fbmt   the workload's capture (strictly increasing
//                             microsecond timestamps)
//   one.pcap | one.fbmt       a one-packet capture of the same format, for
//                             the set-up measurement
//   links.txt                 the POP link list (NAME=PREFIX[,PREFIX...]),
//                             one per line; pop_live feeds it to --link
//   tally.json                what the generator put in the capture, counted
//                             here and nowhere else: frame totals, per-link
//                             and per-window packet/byte counts
//
// The generator deliberately shares no code with the library: the capture
// formats are written from their documented layouts, and link membership is
// a brute-force longest-prefix match over links.txt, so the benchmark's
// checks do not trust the code they check.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

// ------------------------------------------------------------------ rng ---

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& s : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }
  /// Pareto with scale 1 and shape alpha (>= 1, heavy tailed).
  double pareto(double alpha) {
    return std::pow(1.0 - uniform(), -1.0 / alpha);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_{};
};

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (auto& c : cdf_) c /= acc;
  }
  std::size_t draw(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// --------------------------------------------------------------- frames ---

enum class Frame : std::uint8_t { ipv4, vlan_ipv4, qinq_ipv4, ipv6, arp };

struct Packet {
  double t = 0.0;  ///< generation time; quantized to us before writing
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint8_t proto = 6;
  Frame frame = Frame::ipv4;
  std::uint32_t size = 40;  ///< IP datagram length (what the reader reports)
  std::uint64_t us = 0;     ///< strictly increasing microsecond timestamp
};

[[nodiscard]] bool is_ipv4(Frame f) {
  return f == Frame::ipv4 || f == Frame::vlan_ipv4 || f == Frame::qinq_ipv4;
}

/// The timestamp a reader reconstructs: whole seconds plus microseconds,
/// the same expression for .fbmt and for pcap (relative to its epoch).
[[nodiscard]] double seconds_of(std::uint64_t us) {
  return static_cast<double>(us / 1000000) +
         static_cast<double>(us % 1000000) * 1e-6;
}

/// Sorts by generation time and assigns strictly increasing microsecond
/// timestamps (the tools reject out-of-order packets, and pcap carries
/// microseconds).
void order(std::vector<Packet>& pkts) {
  std::sort(pkts.begin(), pkts.end(),
            [](const Packet& a, const Packet& b) { return a.t < b.t; });
  std::uint64_t prev = 0;
  bool first = true;
  for (auto& p : pkts) {
    auto us = static_cast<std::uint64_t>(std::llround(p.t * 1e6));
    if (!first && us <= prev) us = prev + 1;
    p.us = us;
    prev = us;
    first = false;
  }
}

// ------------------------------------------------------------- writers ---

template <typename T>
void put(std::ofstream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_be16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v >> 8);
  p[1] = static_cast<unsigned char>(v & 0xff);
}

void put_be32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v >> 24);
  p[1] = static_cast<unsigned char>((v >> 16) & 0xff);
  p[2] = static_cast<unsigned char>((v >> 8) & 0xff);
  p[3] = static_cast<unsigned char>(v & 0xff);
}

/// Native trace: 24-byte header, 28-byte little-endian records.
void write_fbmt(const std::filesystem::path& path,
                const std::vector<Packet>& pkts) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  put(out, std::uint32_t{0x544d4246});  // "FBMT"
  put(out, std::uint32_t{1});
  put(out, static_cast<std::uint64_t>(pkts.size()));
  put(out, std::uint64_t{0});
  std::vector<char> buf;
  buf.reserve(pkts.size() * 28);
  for (const auto& p : pkts) {
    std::array<char, 28> rec{};
    const double ts = seconds_of(p.us);
    std::memcpy(rec.data(), &ts, 8);
    std::memcpy(rec.data() + 8, &p.src, 4);
    std::memcpy(rec.data() + 12, &p.dst, 4);
    std::memcpy(rec.data() + 16, &p.sport, 2);
    std::memcpy(rec.data() + 18, &p.dport, 2);
    rec[20] = static_cast<char>(p.proto);
    std::memcpy(rec.data() + 24, &p.size, 4);
    buf.insert(buf.end(), rec.begin(), rec.end());
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("write failed: " + path.string());
}

constexpr std::uint32_t kPcapEpoch = 999648000;  // the readers' default

/// Classic pcap, microsecond magic, Ethernet linktype; headers only are
/// captured, orig_len carries the on-wire length.
void write_pcap(const std::filesystem::path& path,
                const std::vector<Packet>& pkts) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  put(out, std::uint32_t{0xa1b2c3d4});
  put(out, std::uint16_t{2});
  put(out, std::uint16_t{4});
  put(out, std::int32_t{0});
  put(out, std::uint32_t{0});
  put(out, std::uint32_t{128});
  put(out, std::uint32_t{1});
  std::vector<char> buf;
  buf.reserve(pkts.size() * 72);
  for (const auto& p : pkts) {
    std::array<unsigned char, 96> f{};
    std::size_t off = 12;
    const auto tag = [&](std::uint16_t tpid, std::uint16_t vid) {
      put_be16(f.data() + off, tpid);
      put_be16(f.data() + off + 2, vid);
      off += 4;
    };
    if (p.frame == Frame::vlan_ipv4) tag(0x8100, 100 + (p.dst & 0xff));
    if (p.frame == Frame::qinq_ipv4) {
      tag(0x88a8, 10);
      tag(0x8100, 200);
    }
    std::size_t l3 = off + 2;
    std::size_t captured = 0;
    std::uint32_t wire = 0;
    if (is_ipv4(p.frame)) {
      put_be16(f.data() + off, 0x0800);
      unsigned char* ip = f.data() + l3;
      ip[0] = 0x45;
      put_be16(ip + 2, static_cast<std::uint16_t>(p.size));
      ip[8] = 64;
      ip[9] = p.proto;
      put_be32(ip + 12, p.src);
      put_be32(ip + 16, p.dst);
      unsigned char* l4 = ip + 20;
      put_be16(l4, p.sport);
      put_be16(l4 + 2, p.dport);
      std::size_t l4len = 8;
      if (p.proto == 6) {
        l4[12] = 0x50;
        l4len = 20;
      } else {
        put_be16(l4 + 4, static_cast<std::uint16_t>(p.size - 20));
      }
      captured = l3 + 20 + l4len;
      wire = static_cast<std::uint32_t>(l3) + p.size;
    } else if (p.frame == Frame::ipv6) {
      put_be16(f.data() + off, 0x86dd);
      unsigned char* ip = f.data() + l3;
      ip[0] = 0x60;
      put_be16(ip + 4, static_cast<std::uint16_t>(p.size - 40));
      ip[6] = 6;
      ip[7] = 64;
      put_be32(ip + 8, 0x20010db8);
      put_be32(ip + 20, p.src);
      put_be32(ip + 24, 0x20010db8);
      put_be32(ip + 36, p.dst);
      put_be16(ip + 40, p.sport);
      put_be16(ip + 42, p.dport);
      ip[52] = 0x50;
      captured = l3 + 60;
      wire = static_cast<std::uint32_t>(l3) + p.size;
    } else {  // ARP request
      put_be16(f.data() + off, 0x0806);
      unsigned char* a = f.data() + l3;
      put_be16(a, 1);
      put_be16(a + 2, 0x0800);
      a[4] = 6;
      a[5] = 4;
      put_be16(a + 6, 1);
      put_be32(a + 14, p.src);
      put_be32(a + 24, p.dst);
      captured = l3 + 28;
      wire = 60;
    }
    const std::uint32_t sec = kPcapEpoch + static_cast<std::uint32_t>(
                                               p.us / 1000000);
    const auto usec = static_cast<std::uint32_t>(p.us % 1000000);
    const auto incl = static_cast<std::uint32_t>(captured);
    const auto push = [&](std::uint32_t v) {
      const auto* b = reinterpret_cast<const char*>(&v);
      buf.insert(buf.end(), b, b + 4);
    };
    push(sec);
    push(usec);
    push(incl);
    push(wire);
    buf.insert(buf.end(), f.begin(), f.begin() + captured);
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("write failed: " + path.string());
}

// --------------------------------------------------------------- flows ---

/// One flow's packets: `n` packets over `dur` seconds from `start` (first
/// packet at start, last at start + dur), truncated at the horizon.
struct FlowShape {
  double start = 0.0;
  double dur = 0.0;
  std::uint64_t n = 2;
};

enum class SizeMix { backbone, minimum };

void emit_flow(Rng& rng, const FlowShape& shape, const Packet& proto,
               SizeMix mix, double horizon, std::vector<Packet>& out) {
  std::vector<double> offs(shape.n);
  offs[0] = 0.0;
  offs[shape.n - 1] = 1.0;
  for (std::size_t i = 1; i + 1 < shape.n; ++i) offs[i] = rng.uniform();
  std::sort(offs.begin(), offs.end());
  // Per-flow packet-size profile: bulk transfers (full frames, ragged
  // tail), interactive (small), or mixed.
  const double kind = rng.uniform();
  for (std::size_t i = 0; i < shape.n; ++i) {
    Packet p = proto;
    p.t = shape.start + shape.dur * offs[i];
    if (p.t >= horizon) break;
    if (mix == SizeMix::minimum) {
      p.size = 40;
    } else if (kind < 0.6) {
      p.size = i + 1 < shape.n ? 1500
                               : static_cast<std::uint32_t>(rng.between(40, 1500));
    } else if (kind < 0.85) {
      p.size = static_cast<std::uint32_t>(rng.between(40, 200));
    } else {
      p.size = static_cast<std::uint32_t>(rng.between(40, 1500));
    }
    if (p.proto == 17 && p.size < 28) p.size = 28;
    out.push_back(p);
  }
}

/// Heavy-tailed backbone flow starting at t0: Pareto(1.2) packet count
/// (>= 2, at most 2 + cap), exponential per-flow packet spacing.
FlowShape backbone_shape(Rng& rng, double t0, double mean_gap_s,
                         std::uint64_t cap = 20000) {
  FlowShape s;
  s.start = t0;
  s.n = 2 + std::min<std::uint64_t>(
                static_cast<std::uint64_t>(rng.pareto(1.2)) - 1, cap);
  s.dur = static_cast<double>(s.n - 1) * rng.exponential(mean_gap_s);
  return s;
}

Packet random_tuple(Rng& rng, std::uint32_t dst) {
  Packet p;
  p.src = static_cast<std::uint32_t>(rng.next());
  p.dst = dst;
  p.sport = static_cast<std::uint16_t>(rng.between(1024, 65535));
  p.proto = rng.uniform() < 0.85 ? 6 : 17;
  static constexpr std::array<std::uint16_t, 6> kPorts{80,  443, 53,
                                                        25, 8080, 5001};
  p.dport = kPorts[rng.next() % kPorts.size()];
  return p;
}

// ---------------------------------------------------------------- links ---

struct Prefix {
  std::uint32_t net = 0;
  int len = 0;
  [[nodiscard]] bool contains(std::uint32_t a) const {
    const std::uint32_t mask = len == 0 ? 0 : ~std::uint32_t{0} << (32 - len);
    return (a & mask) == net;
  }
};

struct Link {
  std::string name;
  bool all = false;
  std::vector<Prefix> prefixes;
};

std::uint32_t ip(int a, int b, int c, int d) {
  return (static_cast<std::uint32_t>(a) << 24) |
         (static_cast<std::uint32_t>(b) << 16) |
         (static_cast<std::uint32_t>(c) << 8) | static_cast<std::uint32_t>(d);
}

std::string ip_text(std::uint32_t a) {
  return std::to_string(a >> 24) + "." + std::to_string((a >> 16) & 0xff) +
         "." + std::to_string((a >> 8) & 0xff) + "." +
         std::to_string(a & 0xff);
}

/// The POP's links: sixteen /16 edge links, nested customer prefixes
/// (resolved by longest match, up to three levels deep), two multi-prefix
/// peers, and one match-all aggregate. 100.64.0.0/10 belongs to no prefix
/// link.
std::vector<Link> pop_links() {
  std::vector<Link> links;
  for (int i = 0; i < 16; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "edge%02d", i);
    links.push_back({name, false, {{ip(10, i, 0, 0), 16}}});
  }
  links.push_back({"cust0", false, {{ip(10, 0, 128, 0), 17}}});
  links.push_back({"cust1", false, {{ip(10, 0, 192, 0), 18}}});
  links.push_back({"cust2", false, {{ip(10, 1, 0, 0), 20}}});
  links.push_back({"cust3", false, {{ip(10, 2, 64, 0), 18}}});
  links.push_back({"cust4", false, {{ip(10, 3, 3, 0), 24}}});
  links.push_back(
      {"peer0", false, {{ip(172, 16, 0, 0), 12}, {ip(192, 0, 2, 0), 24}}});
  links.push_back({"peer1",
                   false,
                   {{ip(198, 51, 100, 0), 24}, {ip(203, 0, 113, 0), 24}}});
  links.push_back({"tap", true, {}});
  return links;
}

void write_links(const std::filesystem::path& path,
                 const std::vector<Link>& links) {
  std::ofstream out(path);
  for (const auto& l : links) {
    out << l.name << "=";
    if (l.all) {
      out << "all";
    } else {
      for (std::size_t i = 0; i < l.prefixes.size(); ++i) {
        if (i) out << ",";
        out << ip_text(l.prefixes[i].net) << "/" << l.prefixes[i].len;
      }
    }
    out << "\n";
  }
}

/// Brute-force longest-prefix match over every prefix of every link;
/// -1 when no prefix link covers the address.
int longest_match(const std::vector<Link>& links, std::uint32_t addr) {
  int best = -1;
  int best_len = -1;
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (const auto& p : links[i].prefixes) {
      if (p.contains(addr) && p.len > best_len) {
        best = static_cast<int>(i);
        best_len = p.len;
      }
    }
  }
  return best;
}

// -------------------------------------------------------------- tallies ---

/// Per-window packet/byte counts for windows [k*stride, k*stride + width),
/// k = 0 .. floor(last / stride), with the same double comparisons the
/// windows are defined by.
struct WindowTally {
  double width = 1.0;
  double stride = 1.0;
  std::vector<std::uint64_t> packets;
  std::vector<std::uint64_t> bytes;

  void add(double ts, std::uint32_t size) {
    const auto kmax = static_cast<std::int64_t>(std::floor(ts / stride)) + 1;
    const auto kmin = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(std::floor((ts - width) / stride)) - 1);
    for (std::int64_t k = kmin; k <= kmax; ++k) {
      const double start = static_cast<double>(k) * stride;
      if (!(start <= ts && ts < start + width)) continue;
      const auto i = static_cast<std::size_t>(k);
      if (packets.size() <= i) {
        packets.resize(i + 1, 0);
        bytes.resize(i + 1, 0);
      }
      ++packets[i];
      bytes[i] += size;
    }
  }
};

void json_array(std::FILE* f, const std::vector<std::uint64_t>& v) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, i ? ",%llu" : "%llu",
                 static_cast<unsigned long long>(v[i]));
  }
  std::fputc(']', f);
}

void json_windows(std::FILE* f, const WindowTally& w) {
  std::fprintf(f, "{\"width_s\": %.17g, \"stride_s\": %.17g, \"packets\": ",
               w.width, w.stride);
  json_array(f, w.packets);
  std::fputs(", \"bytes\": ", f);
  json_array(f, w.bytes);
  std::fputc('}', f);
}

// ------------------------------------------------------------ workloads ---

/// capture_batch: an hour of a heavy-tailed backbone mix as a pcap, a
/// fifth of the flows 802.1Q-tagged (some QinQ) and a share of IPv6/ARP
/// frames the reader must skip.
void gen_capture(Rng& rng, const std::filesystem::path& dir) {
  const double horizon = 3600.0;
  const double lambda = 70.0;  // flow arrivals per second
  std::vector<std::uint32_t> pool(4096);
  for (auto& d : pool) {
    d = ip(10 + static_cast<int>(rng.between(0, 40)),
           static_cast<int>(rng.between(0, 255)),
           static_cast<int>(rng.between(0, 255)), 0);
  }
  const Zipf zipf(pool.size(), 1.0);
  std::vector<Packet> pkts;
  pkts.reserve(5'000'000);
  for (double t = rng.exponential(1.0 / lambda); t < horizon;
       t += rng.exponential(1.0 / lambda)) {
    Packet proto = random_tuple(
        rng, pool[zipf.draw(rng)] | static_cast<std::uint32_t>(
                                        rng.between(1, 254)));
    const double v = rng.uniform();
    proto.frame = v < 0.15   ? Frame::vlan_ipv4
                  : v < 0.20 ? Frame::qinq_ipv4
                             : Frame::ipv4;
    emit_flow(rng, backbone_shape(rng, t, 1.0), proto, SizeMix::backbone,
              horizon, pkts);
  }
  // Non-IPv4 frames: IPv6/TCP and ARP, ~3% of the capture.
  const double other_rate = 12.0;
  for (double t = rng.exponential(1.0 / other_rate); t < horizon;
       t += rng.exponential(1.0 / other_rate)) {
    Packet p = random_tuple(rng, static_cast<std::uint32_t>(rng.next()));
    p.t = t;
    p.frame = rng.uniform() < 0.7 ? Frame::ipv6 : Frame::arp;
    p.size = p.frame == Frame::ipv6
                 ? static_cast<std::uint32_t>(rng.between(60, 1500))
                 : 46;
    pkts.push_back(p);
  }
  order(pkts);
  write_pcap(dir / "input.pcap", pkts);

  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t vlan = 0;
  double first = 0.0;
  double last = 0.0;
  for (const auto& p : pkts) {
    if (!is_ipv4(p.frame)) continue;
    const double ts = seconds_of(p.us);
    if (packets == 0) first = ts;
    last = ts;
    ++packets;
    bytes += p.size;
    if (p.frame != Frame::ipv4) ++vlan;
  }
  std::FILE* f = std::fopen((dir / "tally.json").c_str(), "w");
  std::fprintf(f,
               "{\"frames\": %zu, \"horizon_s\": %.17g, \"packets\": %llu, "
               "\"bytes\": %llu, \"skipped\": %llu, \"vlan_frames\": %llu, "
               "\"first_ts\": %.17g, \"last_ts\": %.17g}\n",
               pkts.size(), horizon, static_cast<unsigned long long>(packets),
               static_cast<unsigned long long>(bytes),
               static_cast<unsigned long long>(pkts.size() - packets),
               static_cast<unsigned long long>(vlan), first, last);
  std::fclose(f);
}

/// pop_live: a POP tap over the links of pop_links(), destinations drawn
/// with Zipf skew from /24s spread over the link prefixes (and some space
/// no prefix link owns).
void gen_pop(Rng& rng, const std::filesystem::path& dir,
             const std::vector<Link>& links) {
  const double horizon = 60.0;
  const double lambda = 700.0;
  std::vector<std::uint32_t> pool(3000);
  for (auto& d : pool) {
    const double v = rng.uniform();
    if (v < 0.80) {
      d = ip(10, static_cast<int>(rng.between(0, 15)),
             static_cast<int>(rng.between(0, 255)), 0);
    } else if (v < 0.86) {
      d = ip(10, static_cast<int>(rng.between(0, 3)),
             static_cast<int>(rng.between(0, 255)), 0);
    } else if (v < 0.93) {
      d = rng.uniform() < 0.8
              ? ip(172, 16 + static_cast<int>(rng.between(0, 15)),
                   static_cast<int>(rng.between(0, 255)), 0)
              : ip(rng.uniform() < 0.5 ? 198 : 203,
                   rng.uniform() < 0.5 ? 51 : 0,
                   rng.uniform() < 0.5 ? 100 : 113, 0);
    } else {
      d = ip(100, 64 + static_cast<int>(rng.between(0, 63)),
             static_cast<int>(rng.between(0, 255)), 0);
    }
  }
  pool[17] = ip(10, 3, 3, 0);  // the one /24 customer link gets traffic
  const Zipf zipf(pool.size(), 1.1);
  // Redrawn until the frame count is within 1% of kFrames: the run's work
  // is mostly per window, so packets per second would otherwise follow the
  // seed's frame count (which the heavy tail spreads by several percent).
  constexpr double kFrames = 211000.0;
  std::vector<Packet> pkts;
  do {
    pkts.clear();
    for (double t = rng.exponential(1.0 / lambda); t < horizon;
         t += rng.exponential(1.0 / lambda)) {
      const Packet proto = random_tuple(
          rng, pool[zipf.draw(rng)] | static_cast<std::uint32_t>(
                                          rng.between(1, 254)));
      emit_flow(rng, backbone_shape(rng, t, 0.1), proto, SizeMix::backbone,
                horizon, pkts);
    }
  } while (std::abs(static_cast<double>(pkts.size()) / kFrames - 1.0) > 0.01);
  order(pkts);
  write_fbmt(dir / "input.fbmt", pkts);

  std::vector<WindowTally> tally(links.size());
  for (const auto& p : pkts) {
    const double ts = seconds_of(p.us);
    const int owner = longest_match(links, p.dst);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (links[i].all || static_cast<int>(i) == owner) {
        tally[i].add(ts, p.size);
      }
    }
  }
  std::FILE* f = std::fopen((dir / "tally.json").c_str(), "w");
  std::fprintf(f, "{\"frames\": %zu, \"links\": {", pkts.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    std::fprintf(f, "%s\"%s\": ", i ? ", " : "", links[i].name.c_str());
    json_windows(f, tally[i]);
  }
  std::fputs("}}\n", f);
  std::fclose(f);
}

/// ddos_churn: baseline backbone traffic into one link, then a flood of
/// tiny minimum-size flows (2-6 packets each, random sources) at 30x the
/// flow arrival rate, then recovery.
void gen_ddos(Rng& rng, const std::filesystem::path& dir) {
  const double horizon = 120.0;
  const double flood_start = 60.0;
  const double flood_end = 80.0;
  const double lambda = 400.0;
  const double flood_lambda = 30.0 * lambda;
  std::vector<std::uint32_t> pool(1024);
  for (auto& d : pool) {
    d = ip(10, static_cast<int>(rng.between(0, 255)),
           static_cast<int>(rng.between(0, 255)), 0);
  }
  const Zipf zipf(pool.size(), 1.0);
  std::vector<Packet> pkts;
  for (double t = rng.exponential(1.0 / lambda); t < horizon;
       t += rng.exponential(1.0 / lambda)) {
    const Packet proto = random_tuple(
        rng, pool[zipf.draw(rng)] | static_cast<std::uint32_t>(
                                        rng.between(1, 254)));
    // A short tail keeps the baseline's byte rate steady enough that the
    // flood stands out of the forecast band on every seed.
    emit_flow(rng, backbone_shape(rng, t, 0.2, 100), proto, SizeMix::backbone,
              horizon, pkts);
  }
  // A fixed number of flood flows, uniform over the flood, so the flow
  // tables' high-water mark does not swing with the seed.
  const std::uint32_t victim = ip(10, 9, 9, 9);
  const auto flood_flows = static_cast<std::uint64_t>(
      flood_lambda * (flood_end - flood_start));
  for (std::uint64_t i = 0; i < flood_flows; ++i) {
    const double t = flood_start + (flood_end - flood_start) * rng.uniform();
    Packet proto = random_tuple(rng, victim);
    proto.proto = 6;
    proto.dport = 80;
    FlowShape s;
    s.start = t;
    s.n = rng.between(2, 6);
    s.dur = 0.01 + rng.uniform() * 0.3;
    emit_flow(rng, s, proto, SizeMix::minimum, horizon, pkts);
  }
  order(pkts);
  write_fbmt(dir / "input.fbmt", pkts);

  WindowTally windows;
  windows.width = 10.0;
  windows.stride = 2.0;
  for (const auto& p : pkts) windows.add(seconds_of(p.us), p.size);
  std::FILE* f = std::fopen((dir / "tally.json").c_str(), "w");
  std::fprintf(f,
               "{\"frames\": %zu, \"flood_start_s\": %.17g, "
               "\"flood_end_s\": %.17g, \"windows\": ",
               pkts.size(), flood_start, flood_end);
  json_windows(f, windows);
  std::fputs("}\n", f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: perfbench_gen <capture_batch|pop_live|ddos_churn> "
                 "<seed> <outdir>\n");
    return 2;
  }
  const std::string workload = argv[1];
  const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const std::filesystem::path dir = argv[3];
  try {
    std::filesystem::create_directories(dir);
    const auto links = pop_links();
    write_links(dir / "links.txt", links);
    // Distinct streams per workload for the same seed.
    Rng rng(seed * 0x100000001b3ULL + std::hash<std::string>{}(workload));
    Packet one = random_tuple(rng, ip(10, 0, 0, 1));
    one.t = 0.5;
    one.size = 1500;
    std::vector<Packet> single{one};
    order(single);
    if (workload == "capture_batch") {
      write_pcap(dir / "one.pcap", single);
      gen_capture(rng, dir);
    } else if (workload == "pop_live") {
      write_fbmt(dir / "one.fbmt", single);
      gen_pop(rng, dir, links);
    } else if (workload == "ddos_churn") {
      write_fbmt(dir / "one.fbmt", single);
      gen_ddos(rng, dir);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
