#include "verify/trace_lint.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace pinatubo::verify {

namespace {

/// Fixed-point slack: the exporter prints microseconds with four decimals,
/// so every endpoint carries up to 0.05 ns of rounding; comparisons involve
/// two or three rounded values.
constexpr double kEpsNs = 0.21;

// ---- minimal recursive-descent JSON reader --------------------------------
// The linter must not trust the writer, so it re-parses the file instead of
// linking against the exporter.  Only what trace-event files use: objects,
// arrays, strings (with the exporter's escapes), numbers, true/false/null,
// under the input contract in trace_lint.hpp.

struct JValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JValue> items;
  std::vector<std::pair<std::string, JValue>> fields;

  const JValue* find(const std::string& key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
  bool is(Kind k) const { return kind == k; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(JValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content");
    return true;
  }

  std::string error() const {
    std::ostringstream os;
    os << error_ << " at byte " << pos_;
    return os.str();
  }

 private:
  bool fail(const char* why) {
    if (error_.empty()) error_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  bool value(JValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxTraceDepth) return fail("nesting too deep");
        ++depth_;
        const bool ok = text_[pos_] == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = JValue::Kind::kString;
        return string(out.string);
      case 't':
        out.kind = JValue::Kind::kBool;
        out.boolean = true;
        return literal("true", 4);
      case 'f':
        out.kind = JValue::Kind::kBool;
        out.boolean = false;
        return literal("false", 5);
      case 'n':
        out.kind = JValue::Kind::kNull;
        return literal("null", 4);
      default: return number(out);
    }
  }

  bool object(JValue& out) {
    out.kind = JValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':')
        return fail("expected ':'");
      ++pos_;
      skip_ws();
      JValue v;
      if (!value(v)) return false;
      out.fields.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') return ++pos_, true;
      return fail("expected ',' or '}'");
    }
  }

  bool array(JValue& out) {
    out.kind = JValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      JValue v;
      if (!value(v)) return false;
      out.items.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') return ++pos_, true;
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          const char* hex = text_.data() + pos_;
          const auto [end, ec] = std::from_chars(hex, hex + 4, cp, 16);
          if (ec != std::errc() || end != hex + 4)
            return fail("\\u escape needs four hex digits");
          pos_ += 4;
          // The exporter only emits \u00xx control escapes; anything wider
          // is replaced rather than UTF-8-encoded (names are diagnostics,
          // not payload).
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  /// Skips a run of decimal digits; returns how many there were.
  std::size_t digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ - start;
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  /// JSON number grammar: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool number(JValue& out) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    if (int_digits == 0)
      return fail(pos_ == start ? "expected a value" : "malformed number");
    if (int_digits > 1 && text_[int_start] == '0')
      return fail("malformed number");  // leading zero
    if (at('.')) {
      ++pos_;
      if (digits() == 0) return fail("malformed number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (digits() == 0) return fail("malformed number");
    }
    const char* begin = text_.data() + start;
    const auto [end, ec] =
        std::from_chars(begin, text_.data() + pos_, out.number);
    if (ec != std::errc() || end != text_.data() + pos_ ||
        !std::isfinite(out.number))
      return fail("number outside the finite double range");
    out.kind = JValue::Kind::kNumber;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::string error_;
};

double num_or(const JValue* v, double fallback) {
  return v != nullptr && v->is(JValue::Kind::kNumber) ? v->number : fallback;
}

/// An event's track id: 0 when absent, else an integer in uint32 range.
bool tid_of(const JValue& ev, std::uint32_t& tid) {
  const JValue* v = ev.find("tid");
  if (v == nullptr) {
    tid = 0;
    return true;
  }
  if (!v->is(JValue::Kind::kNumber) || v->number < 0.0 ||
      v->number > std::numeric_limits<std::uint32_t>::max() ||
      v->number != std::floor(v->number))
    return false;
  tid = static_cast<std::uint32_t>(v->number);
  return true;
}

}  // namespace

Report lint_trace_text(const std::string& json, TraceStats* stats) {
  Report rep;
  const auto none = Diagnostic::kNoIndex;
  auto t01 = [&](const std::string& msg) {
    rep.add(Rule::kTraceParse, none, none, msg);
  };

  JValue root;
  JsonParser parser(json);
  if (!parser.parse(root)) {
    t01(parser.error());
    return rep;
  }
  if (!root.is(JValue::Kind::kObject)) {
    t01("root is not an object");
    return rep;
  }
  const JValue* events = root.find("traceEvents");
  const JValue* other = root.find("otherData");
  if (events == nullptr || !events->is(JValue::Kind::kArray)) {
    t01("missing traceEvents array");
    return rep;
  }
  if (other == nullptr || !other->is(JValue::Kind::kObject)) {
    t01("missing otherData object");
    return rep;
  }
  const JValue* declared_max = other->find("max_span_end_ns");
  if (declared_max == nullptr || !declared_max->is(JValue::Kind::kNumber))
    t01("otherData.max_span_end_ns missing");

  struct LintSpan {
    double start_ns, end_ns;
    std::size_t event;
    std::uint32_t tid;
  };
  std::map<std::uint32_t, std::vector<LintSpan>> by_track;
  std::map<std::uint32_t, std::string> track_names;
  TraceStats st;
  st.declared_max_end_ns = num_or(declared_max, 0.0);

  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const JValue& ev = events->items[i];
    if (!ev.is(JValue::Kind::kObject)) {
      t01("traceEvents[" + std::to_string(i) + "] is not an object");
      continue;
    }
    const JValue* ph = ev.find("ph");
    if (ph == nullptr || !ph->is(JValue::Kind::kString)) {
      t01("traceEvents[" + std::to_string(i) + "] has no ph");
      continue;
    }
    // Other phases are not ours to judge.
    if (ph->string != "M" && ph->string != "X") continue;
    std::uint32_t tid = 0;
    if (!tid_of(ev, tid)) {
      t01("traceEvents[" + std::to_string(i) +
          "] tid is not an integer in uint32 range");
      continue;
    }
    if (ph->string == "M") {
      const JValue* name = ev.find("name");
      const JValue* args = ev.find("args");
      if (name != nullptr && name->string == "thread_name" &&
          args != nullptr && args->is(JValue::Kind::kObject)) {
        const JValue* tname = args->find("name");
        if (tname != nullptr && tname->is(JValue::Kind::kString))
          track_names[tid] = tname->string;
      }
      continue;
    }
    const JValue* ts = ev.find("ts");
    const JValue* dur = ev.find("dur");
    if (ts == nullptr || !ts->is(JValue::Kind::kNumber) || dur == nullptr ||
        !dur->is(JValue::Kind::kNumber)) {
      t01("span event " + std::to_string(i) + " lacks numeric ts/dur");
      continue;
    }
    LintSpan s;
    s.start_ns = ts->number * 1e3;  // Chrome ts/dur are microseconds
    s.end_ns = s.start_ns + dur->number * 1e3;
    s.event = i;
    s.tid = tid;
    by_track[s.tid].push_back(s);
    ++st.spans;
    st.max_end_ns = std::max(st.max_end_ns, s.end_ns);
    const JValue* cat = ev.find("cat");
    if (cat != nullptr && cat->is(JValue::Kind::kString))
      ++st.spans_by_category[cat->string];
  }
  st.tracks = track_names.size();

  // ---- T02: the declared makespan bounds every span ----------------------
  if (declared_max != nullptr) {
    const double limit =
        st.declared_max_end_ns + kEpsNs + 1e-9 * st.declared_max_end_ns;
    for (const auto& [tid, spans] : by_track)
      for (const LintSpan& s : spans)
        if (s.end_ns > limit) {
          std::ostringstream os;
          os << "span event " << s.event << " ends at " << s.end_ns
             << " ns, past the declared max_span_end_ns "
             << st.declared_max_end_ns;
          rep.add(Rule::kTracePastMakespan, none, none, os.str());
        }
    if (st.spans > 0 &&
        st.max_end_ns <
            st.declared_max_end_ns - kEpsNs - 1e-9 * st.declared_max_end_ns) {
      std::ostringstream os;
      os << "no span reaches the declared max_span_end_ns "
         << st.declared_max_end_ns << " (latest ends at " << st.max_end_ns
         << " ns)";
      rep.add(Rule::kTracePastMakespan, none, none, os.str());
    }
  }

  // ---- T03: spans sharing a track tile without overlap -------------------
  for (auto& [tid, spans] : by_track) {
    std::sort(spans.begin(), spans.end(),
              [](const LintSpan& a, const LintSpan& b) {
                return a.start_ns < b.start_ns;
              });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      const LintSpan& prev = spans[i - 1];
      const LintSpan& cur = spans[i];
      if (cur.start_ns < prev.end_ns - kEpsNs - 1e-9 * prev.end_ns) {
        std::ostringstream os;
        const auto it = track_names.find(tid);
        os << "track " << (it != track_names.end() ? it->second
                                                   : std::to_string(tid))
           << ": span event " << cur.event << " starting at " << cur.start_ns
           << " ns overlaps event " << prev.event << " ending at "
           << prev.end_ns << " ns";
        rep.add(Rule::kTraceTrackOverlap, none, none, os.str());
      }
    }
  }

  // ---- T04: declared counters agree with the spans -----------------------
  const JValue* counters = other->find("counters");
  if (counters != nullptr && counters->is(JValue::Kind::kObject))
    for (const auto& [name, value] : counters->fields) {
      if (value.is(JValue::Kind::kNumber)) st.counters[name] = value.number;
      constexpr const char* kPrefix = "pim.steps.";
      if (name.rfind(kPrefix, 0) != 0 || !value.is(JValue::Kind::kNumber))
        continue;
      const std::string cls = name.substr(std::string(kPrefix).size());
      const auto it = st.spans_by_category.find(cls);
      const std::size_t seen =
          it == st.spans_by_category.end() ? 0 : it->second;
      const auto want = static_cast<std::size_t>(std::llround(value.number));
      if (seen != want) {
        std::ostringstream os;
        os << name << " = " << want << " but the trace holds " << seen
           << " spans of class " << cls;
        rep.add(Rule::kTraceCounterMismatch, none, none, os.str());
      }
    }
  const JValue* declared_spans = other->find("spans");
  if (declared_spans != nullptr &&
      declared_spans->is(JValue::Kind::kNumber) &&
      static_cast<std::size_t>(std::llround(declared_spans->number)) !=
          st.spans) {
    std::ostringstream os;
    os << "otherData.spans = " << declared_spans->number
       << " but the trace holds " << st.spans << " spans";
    rep.add(Rule::kTraceCounterMismatch, none, none, os.str());
  }

  if (stats != nullptr) *stats = std::move(st);
  return rep;
}

Report lint_trace_file(const std::string& path, TraceStats* stats) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    Report rep;
    rep.add(Rule::kTraceParse, Diagnostic::kNoIndex, Diagnostic::kNoIndex,
            "cannot open trace file " + path);
    return rep;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return lint_trace_text(buf.str(), stats);
}

std::string TraceStats::to_json(const Report& rep) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << "{\"ok\":" << (rep.ok() ? "true" : "false") << ",\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : rep.diags) {
    if (!first) os << ',';
    first = false;
    obs::write_json_string(os, d.to_string());
  }
  os << "],\"spans\":" << spans << ",\"tracks\":" << tracks
     << ",\"max_end_ns\":" << max_end_ns
     << ",\"declared_max_end_ns\":" << declared_max_end_ns
     << ",\"spans_by_category\":{";
  first = true;
  for (const auto& [cat, n] : spans_by_category) {
    if (!first) os << ',';
    first = false;
    obs::write_json_string(os, cat);
    os << ':' << n;
  }
  os << "},\"counters\":{";
  first = true;
  for (const auto& [name, value] : counters) {
    if (!first) os << ',';
    first = false;
    obs::write_json_string(os, name);
    os << ':' << value;
  }
  os << "}}";
  return os.str();
}

}  // namespace pinatubo::verify
