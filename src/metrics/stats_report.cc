#include "metrics/stats_report.h"

#include <ostream>
#include <sstream>
#include <string>

#include "common/strings.h"
#include "metrics/table_printer.h"
#include "obs/metrics_registry.h"
#include "operators/operator.h"

namespace dsms {

void PrintOperatorStats(const QueryGraph& graph, std::ostream& os) {
  TablePrinter table({"operator", "data_in", "punct_in", "data_out",
                      "punct_out", "steps", "buffered_in", "hwm", "shed"});
  for (const auto& op : graph.operators()) {
    size_t buffered = 0;
    size_t hwm = 0;
    uint64_t shed = 0;
    for (int i = 0; i < op->num_inputs(); ++i) {
      const StreamBuffer* in = op->input(i);
      buffered += in->size();
      if (in->high_water_mark() > hwm) hwm = in->high_water_mark();
      shed += in->shed_tuples();
    }
    const OperatorStats& s = op->stats();
    table.AddRow(
        {op->name(),
         StrFormat("%llu", static_cast<unsigned long long>(s.data_in)),
         StrFormat("%llu", static_cast<unsigned long long>(s.punctuation_in)),
         StrFormat("%llu", static_cast<unsigned long long>(s.data_out)),
         StrFormat("%llu",
                   static_cast<unsigned long long>(s.punctuation_out)),
         StrFormat("%llu", static_cast<unsigned long long>(s.steps)),
         StrFormat("%zu", buffered), StrFormat("%zu", hwm),
         StrFormat("%llu", static_cast<unsigned long long>(shed))});
  }
  table.Print(os);
}

std::string OperatorStatsString(const QueryGraph& graph) {
  std::ostringstream os;
  PrintOperatorStats(graph, os);
  return os.str();
}

void PublishOperatorStats(const QueryGraph& graph,
                          MetricsRegistry* registry) {
  for (const auto& op : graph.operators()) {
    size_t buffered = 0;
    size_t hwm = 0;
    uint64_t shed = 0;
    for (int i = 0; i < op->num_inputs(); ++i) {
      const StreamBuffer* in = op->input(i);
      buffered += in->size();
      if (in->high_water_mark() > hwm) hwm = in->high_water_mark();
      shed += in->shed_tuples();
    }
    const OperatorStats& s = op->stats();
    const std::string prefix = "op." + op->name();
    registry->SetCounter(prefix + ".data_in", s.data_in);
    registry->SetCounter(prefix + ".punct_in", s.punctuation_in);
    registry->SetCounter(prefix + ".data_out", s.data_out);
    registry->SetCounter(prefix + ".punct_out", s.punctuation_out);
    registry->SetCounter(prefix + ".steps", s.steps);
    registry->SetCounter(prefix + ".buffered_in", buffered);
    registry->SetCounter(prefix + ".hwm", hwm);
    registry->SetCounter(prefix + ".shed", shed);
  }
}

std::string RobustnessReportString(const QueryGraph& graph,
                                   const OrderValidator* validator) {
  std::ostringstream os;
  for (Source* source : graph.sources()) {
    if (!source->degraded()) continue;
    os << StrFormat("degraded source '%s': %llu lease-expired ETS\n",
                    source->name().c_str(),
                    static_cast<unsigned long long>(
                        source->lease_fallbacks()));
  }
  const uint64_t shed = graph.TotalShedTuples();
  const uint64_t vetoed = graph.TotalVetoedPushes();
  if (shed > 0 || vetoed > 0) {
    os << StrFormat("overload: %llu tuples shed, %llu pushes vetoed\n",
                    static_cast<unsigned long long>(shed),
                    static_cast<unsigned long long>(vetoed));
  }
  if (validator != nullptr && validator->violations() > 0) {
    os << StrFormat(
        "order violations: %llu (%s policy, %llu dropped, %llu "
        "quarantined)\n",
        static_cast<unsigned long long>(validator->violations()),
        ViolationPolicyToString(validator->policy()),
        static_cast<unsigned long long>(validator->dropped()),
        static_cast<unsigned long long>(validator->quarantined()));
    os << "  first: " << validator->first_violation() << "\n";
    size_t shown = 0;
    for (const Tuple& tuple : validator->dead_letter()) {
      if (shown++ == 4) {
        os << StrFormat("  dead-letter: ... (%zu sampled)\n",
                        validator->dead_letter().size());
        break;
      }
      os << "  dead-letter: " << tuple.ToString() << "\n";
    }
  }
  return os.str();
}

}  // namespace dsms
