#include "engine/op/explain.h"

#include <cstdio>
#include <utility>

namespace hermes::engine::op {

void ExplainPrinter::Node(const std::string& text,
                          std::vector<std::function<void()>> children) {
  out_ += pending_prefix_ + text + "\n";
  std::string saved_indent = indent_;
  for (size_t i = 0; i < children.size(); ++i) {
    bool last = i + 1 == children.size();
    pending_prefix_ = saved_indent + (last ? "└─ " : "├─ ");
    indent_ = saved_indent + (last ? "   " : "│  ");
    children[i]();
  }
  indent_ = saved_indent;
}

void ExplainPrinter::NodeFor(PhysicalOp& oper, const std::string& annotations,
                             std::vector<std::function<void()>> children) {
  std::string text = oper.label();
  if (!annotations.empty()) text += " " + annotations;
  if (actuals_) {
    const OpStats& s = oper.stats();
    text += " (actual: opens=" + std::to_string(s.opens) +
            " rows=" + std::to_string(s.rows) +
            " sim=" + FormatNum(s.sim_total_ms) + "ms" + oper.ActualExtras() +
            ")";
  }
  Node(text, std::move(children));
}

bool ExplainPrinter::OnPath(const std::string& predicate) const {
  for (const std::string& p : path_) {
    if (p == predicate) return true;
  }
  return false;
}

std::string ExplainPrinter::FormatNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string ExplainTree(PhysicalOp& root, bool actuals) {
  ExplainPrinter printer(actuals);
  root.Explain(printer);
  return printer.Take();
}

}  // namespace hermes::engine::op
