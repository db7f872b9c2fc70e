#ifndef DSMS_GRAPH_PLAN_PARSER_H_
#define DSMS_GRAPH_PLAN_PARSER_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "graph/query_graph.h"

namespace dsms {

/// A parsed textual query plan: the validated graph plus a name -> operator
/// index for attaching feeds, callbacks and metrics.
struct ParsedPlan {
  std::unique_ptr<QueryGraph> graph;
  std::map<std::string, Operator*> operators;

  Operator* Find(const std::string& name) const;
};

/// Parses the small declarative plan language that stands in for Stream
/// Mill's ESL. One statement per line; `#` starts a comment. Operators must
/// be declared before they are referenced. Grammar (arguments are
/// `key=value` pairs; `in=` takes a comma-separated list of producers):
///
///   stream    NAME [ts=internal|external|latent] [skew=DUR]
///                  [granularity=DUR]        (internal stamp quantization,
///                                            >= 1us; ts=internal only)
///                  [schema=name:type,name:type,...]
///                  (types: int64,double,string,bool; declaring a schema
///                   turns on type checking for the downstream pipeline)
///   filter    NAME in=P (selectivity=X [seed=N] | field=N op=CMP value=V)
///                  CMP one of lt,le,gt,ge,eq,ne
///   project   NAME in=P fields=0,2,...
///   union     NAME in=P1,P2[,...]          (ordered mode inferred from the
///                                           sources' timestamp kinds)
///   join      NAME in=L,R [window=DUR] [left_window=DUR] [right_window=DUR]
///                  [left_field=N right_field=M]   (equi-join; else cross)
///   mjoin     NAME in=A,B,C[,...] window=DUR [key=N]
///                  (n-ary window join; key= makes it an all-inputs
///                   equi-join on value index N, else cross product)
///   aggregate NAME in=P fn=count|sum|avg|min|max [field=N] window=DUR
///                  [slide=DUR]
///   gaggregate NAME in=P fn=... key=N [field=M] window=DUR [slide=DUR]
///                  (GROUP BY value index N)
///   reorder   NAME in=P slack=DUR
///   copy      NAME in=P                     (fan-out; connect by listing it
///                                            as `in=` of several consumers)
///   sink      NAME in=P
///
/// Durations: integer with unit suffix us|ms|s|m (bare integers are
/// microseconds), e.g. `window=2s`, `slack=50ms`.
///
/// Returns the validated plan or the first parse/validation error with its
/// line number.
Result<ParsedPlan> ParsePlan(std::string_view text);

/// Parses "2s" / "150ms" / "50us" / "42" (microseconds) / "1m".
Status ParseDuration(std::string_view text, Duration* out);

/// OK when `allowed`, the keys a `type` statement accepts, holds `key`;
/// otherwise the line-numbered error naming the key. Plan and experiment
/// statements both reject unknown keys through it.
Status CheckStatementKey(int line, const std::string& type,
                         const std::string& key,
                         const std::vector<std::string>& allowed);

}  // namespace dsms

#endif  // DSMS_GRAPH_PLAN_PARSER_H_
