#include "bench.h"

namespace perfbench {

cubrick::Status BeginAndAppend(cubrick::Database& db,
                               const cubrick::DatabaseOptions& options,
                               const std::vector<Record>& rows,
                               const Span& parent, cubrick::aosi::Txn* txn) {
  cubrick::Table* table = db.FindTable("sales");
  if (table == nullptr) return cubrick::Status::NotFound("cube 'sales'");
  {
    Span span(parent, "aosi.begin");
    *txn = db.Begin();
  }
  cubrick::Result<cubrick::ParseOutput> parsed = [&] {
    Span span(parent, "ingest.parse");
    return cubrick::ParseRecords(table->schema(), rows, {},
                                 options.ingest_parallelism);
  }();
  if (!parsed.ok()) return parsed.status();
  Span span(parent, "engine.append");
  return table->Append(txn->epoch, std::move(parsed->batches));
}

void SingleNodePreload(cubrick::Database& db,
                       const cubrick::DatabaseOptions& options, DataSet& data,
                       const std::vector<Op>& ops, CubeModel* model,
                       SetupTimer* timer, RunResult* run) {
  Tracer untraced(false);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (i % 16 == 0) timer->Read();
    Span root(untraced, 0, "load");
    cubrick::aosi::Txn txn;
    if (!run->Track(BeginAndAppend(db, options, data.Batch(op.batch, op.day),
                                   root, &txn),
                    "preload append") ||
        !run->Track(db.Commit(txn), "preload commit")) {
      return;
    }
    model->Load(op.day, data.Summary(op.batch));
  }
}

cubrick::Status SingleNodeRefresh(cubrick::Database& db, const Dashboard& dash,
                                  const Span& parent, PanelResults* out) {
  cubrick::aosi::Txn ro;
  {
    Span span(parent, "aosi.snapshot_begin");
    ro = db.BeginReadOnly();
  }
  const std::pair<const char*, const cubrick::Query*> panels[] = {
      {"query.agg", &dash.agg},
      {"query.group", &dash.group},
      {"query.filter", &dash.filter}};
  cubrick::QueryResult* results[] = {&out->agg, &out->group, &out->filter};
  cubrick::Status status;
  for (size_t i = 0; i < 3 && status.ok(); ++i) {
    Span span(parent, panels[i].first);
    auto result = db.QueryIn(ro, "sales", *panels[i].second);
    if (result.ok()) {
      *results[i] = std::move(result).value();
    } else {
      status = result.status();
    }
  }
  Span span(parent, "aosi.snapshot_end");
  db.txns().EndReadOnly(ro);
  return status;
}

}  // namespace perfbench
