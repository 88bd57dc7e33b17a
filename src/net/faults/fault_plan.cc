#include "net/faults/fault_plan.h"

#include <charconv>
#include <cmath>
#include <sstream>

#include "common/io.h"
#include "common/rng.h"

namespace hermes::net {

namespace {

const char* KindName(FaultRule::Kind kind) {
  switch (kind) {
    case FaultRule::Kind::kOutage: return "outage";
    case FaultRule::Kind::kFlaky: return "flaky";
    case FaultRule::Kind::kLatency: return "latency";
    case FaultRule::Kind::kSlow: return "slow";
  }
  return "unknown";
}

/// The shortest text that parses back to exactly `v`.
std::string FormatNumber(double v) {
  char buf[32];
  std::to_chars_result printed = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, printed.ptr);
}

/// Parses the whole of `value` as a finite number.
Status ParseDouble(const std::string& token, const std::string& value,
                   size_t line_no, double* out) {
  const char* end = value.data() + value.size();
  auto [used, ec] = std::from_chars(value.data(), end, *out);
  if (ec != std::errc() || used != end || !std::isfinite(*out)) {
    return Status::ParseError("fault spec line " + std::to_string(line_no) +
                              ": bad number '" + value + "' in '" + token +
                              "'");
  }
  return Status::OK();
}

}  // namespace

std::string FaultRule::ToString() const {
  std::string out = KindName(kind);
  out += " site=" + site;
  if (kind == Kind::kFlaky || kind == Kind::kSlow) {
    out += " p=" + FormatNumber(probability);
  }
  if (kind == Kind::kLatency) out += " factor=" + FormatNumber(factor);
  if (kind == Kind::kSlow) out += " extra_ms=" + FormatNumber(extra_ms);
  if (from_ms > 0.0) out += " from=" + FormatNumber(from_ms);
  if (std::isfinite(until_ms)) out += " until=" + FormatNumber(until_ms);
  return out;
}

std::string FaultPlan::ToString() const {
  std::string out = "seed " + std::to_string(seed) + "\n";
  for (const FaultRule& rule : rules) out += rule.ToString() + "\n";
  return out;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream words(line);
    std::string head;
    if (!(words >> head)) continue;  // blank / comment-only line

    if (head == "seed") {
      std::string value;
      if (!(words >> value)) {
        return Status::ParseError("fault spec line " +
                                  std::to_string(line_no) +
                                  ": seed needs a value");
      }
      const char* end = value.data() + value.size();
      auto [used, ec] = std::from_chars(value.data(), end, plan.seed);
      if (ec != std::errc() || used != end) {
        return Status::ParseError("fault spec line " +
                                  std::to_string(line_no) + ": bad seed '" +
                                  value + "'");
      }
      continue;
    }

    FaultRule rule;
    if (head == "outage") {
      rule.kind = FaultRule::Kind::kOutage;
    } else if (head == "flaky") {
      rule.kind = FaultRule::Kind::kFlaky;
    } else if (head == "latency") {
      rule.kind = FaultRule::Kind::kLatency;
    } else if (head == "slow") {
      rule.kind = FaultRule::Kind::kSlow;
    } else {
      return Status::ParseError("fault spec line " + std::to_string(line_no) +
                                ": unknown rule '" + head +
                                "' (want outage/flaky/latency/slow/seed)");
    }

    bool saw_site = false;
    std::string token;
    while (words >> token) {
      size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return Status::ParseError("fault spec line " +
                                  std::to_string(line_no) + ": '" + token +
                                  "' is not key=value");
      }
      std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      if (key == "site") {
        rule.site = value;
        saw_site = !value.empty();
      } else if (key == "from") {
        HERMES_RETURN_IF_ERROR(
            ParseDouble(token, value, line_no, &rule.from_ms));
      } else if (key == "until") {
        HERMES_RETURN_IF_ERROR(
            ParseDouble(token, value, line_no, &rule.until_ms));
      } else if (key == "p") {
        HERMES_RETURN_IF_ERROR(
            ParseDouble(token, value, line_no, &rule.probability));
      } else if (key == "factor") {
        HERMES_RETURN_IF_ERROR(ParseDouble(token, value, line_no, &rule.factor));
      } else if (key == "extra_ms") {
        HERMES_RETURN_IF_ERROR(
            ParseDouble(token, value, line_no, &rule.extra_ms));
      } else {
        return Status::ParseError("fault spec line " +
                                  std::to_string(line_no) +
                                  ": unknown key '" + key + "'");
      }
    }
    if (!saw_site) {
      return Status::ParseError("fault spec line " + std::to_string(line_no) +
                                ": rule needs site=<name|*>");
    }
    if (rule.probability < 0.0 || rule.probability > 1.0) {
      return Status::ParseError("fault spec line " + std::to_string(line_no) +
                                ": p must be in [0, 1]");
    }
    if (rule.factor <= 0.0) {
      return Status::ParseError("fault spec line " + std::to_string(line_no) +
                                ": factor must be > 0");
    }
    if (rule.extra_ms < 0.0) {
      return Status::ParseError("fault spec line " + std::to_string(line_no) +
                                ": extra_ms must be >= 0");
    }
    if (rule.until_ms <= rule.from_ms) {
      return Status::ParseError("fault spec line " + std::to_string(line_no) +
                                ": empty window (until <= from)");
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

Result<FaultPlan> FaultPlan::Load(const std::string& path) {
  HERMES_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return Parse(text);
}

FaultDecision FaultInjector::Decide(const std::string& site,
                                    uint64_t query_id, size_t call_hash,
                                    uint64_t attempt, double now_ms) const {
  FaultDecision decision;
  // Stream identity of this attempt: (plan seed, query, call, attempt).
  // Each rule then mixes in its own index, so a rule's draw is unaffected
  // by how many other rules precede it in the plan.
  uint64_t attempt_seed = Rng::StreamSeed(
      Rng::StreamSeed(Rng::StreamSeed(plan_.seed, query_id),
                      static_cast<uint64_t>(call_hash)),
      attempt);
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.site != "*" && rule.site != site) continue;
    if (now_ms < rule.from_ms || now_ms >= rule.until_ms) continue;
    switch (rule.kind) {
      case FaultRule::Kind::kOutage:
        if (!decision.unavailable) {
          decision.unavailable = true;
          decision.cause = "outage";
        }
        break;
      case FaultRule::Kind::kFlaky: {
        Rng rng(Rng::StreamSeed(attempt_seed, i));
        if (!decision.unavailable && rng.NextDouble() < rule.probability) {
          decision.unavailable = true;
          decision.cause = "flaky";
        }
        break;
      }
      case FaultRule::Kind::kLatency:
        decision.latency_factor *= rule.factor;
        break;
      case FaultRule::Kind::kSlow: {
        Rng rng(Rng::StreamSeed(attempt_seed, i));
        if (rng.NextDouble() < rule.probability) {
          decision.extra_response_ms += rule.extra_ms;
        }
        break;
      }
    }
  }
  return decision;
}

}  // namespace hermes::net
