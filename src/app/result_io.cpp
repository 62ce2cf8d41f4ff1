#include "app/result_io.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace tdtcp {

// --- JSON writing -----------------------------------------------------------
// (NumberToJson/EscapeJson/ParseJson come from sim/json.)

namespace {

void AppendMetricStats(std::string& out, const MetricStats& s) {
  out += "{\"mean\":" + NumberToJson(s.mean);
  out += ",\"stddev\":" + NumberToJson(s.stddev);
  out += ",\"ci95\":" + NumberToJson(s.ci95);
  out += ",\"n\":" + NumberToJson(static_cast<double>(s.n)) + "}";
}

const MetricStats* FindStats(const SweepCell& cell, const std::string& name) {
  for (const auto& [n, s] : cell.metrics) {
    if (n == name) return &s;
  }
  return nullptr;
}

}  // namespace

std::string SweepToJson(const SweepResult& sweep) {
  std::string out;
  out += "{\"schema\":\"";
  out += kSweepSchemaVersion;
  out += "\",\"jobs\":" + NumberToJson(sweep.jobs);
  out += ",\"wall_seconds\":" + NumberToJson(sweep.wall_seconds);
  out += ",\"cells\":[";
  for (std::size_t c = 0; c < sweep.cells.size(); ++c) {
    const SweepCell& cell = sweep.cells[c];
    if (c) out += ",";
    out += "{\"label\":\"" + EscapeJson(cell.label) + "\"";
    out += ",\"variant\":\"" + EscapeJson(VariantName(cell.variant)) + "\"";
    out += ",\"schedule\":\"" + EscapeJson(cell.schedule_label) + "\"";
    out += ",\"qdisc\":\"" + EscapeJson(cell.qdisc_label) + "\"";
    out += ",\"duration_ps\":" +
           NumberToJson(static_cast<double>(cell.duration.picos()));
    out += ",\"duration_ms\":" + NumberToJson(cell.duration.millis_f());
    out += ",\"runs\":[";
    for (std::size_t r = 0; r < cell.runs.size(); ++r) {
      const SweepRun& run = cell.runs[r];
      if (r) out += ",";
      out += "{\"seed\":" + NumberToJson(static_cast<double>(run.seed));
      out += ",\"metrics\":{";
      const char* sep = "";
      for (const MetricDef& m : MetricTable()) {
        out += sep + ("\"" + EscapeJson(m.name) + "\":") +
               NumberToJson(m.get(run.result));
        sep = ",";
      }
      out += "}}";
    }
    out += "],\"aggregates\":{";
    const char* sep = "";
    for (const MetricDef& m : MetricTable()) {
      if (const MetricStats* s = FindStats(cell, m.name)) {
        out += sep + ("\"" + EscapeJson(m.name) + "\":");
        AppendMetricStats(out, *s);
        sep = ",";
      }
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void WriteSweepJson(const std::string& path, const SweepResult& sweep) {
  WriteTextFile(path, SweepToJson(sweep));
}

// --- JSON parsing -----------------------------------------------------------

namespace {

// Null when `key` is absent; throws when it is present but not a number.
const JsonValue* FindNumber(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  if (v && v->type != JsonValue::Type::kNumber) {
    throw std::runtime_error("tdtcp-sweep: non-numeric field " + key);
  }
  return v;
}

double RequireNumber(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = FindNumber(obj, key);
  if (!v) throw std::runtime_error("tdtcp-sweep: missing numeric field " + key);
  return v->number;
}

template <typename Int>
Int RequireInt(const JsonValue& obj, const std::string& key) {
  return JsonToInt<Int>(RequireNumber(obj, key), "tdtcp-sweep: " + key);
}

}  // namespace

// Per-run values and aggregates both follow MetricTable: a name outside it
// is ignored, a table name absent from the document (written before the
// metric existed) keeps its default, and aggregates come back in table
// order whatever order the document's sorted object model holds.
SweepResult SweepFromJson(const std::string& json) {
  const JsonValue doc = ParseJson(json);
  const JsonValue* schema = doc.Find("schema");
  if (!schema || schema->string != kSweepSchemaVersion) {
    throw std::runtime_error("tdtcp-sweep: unsupported schema");
  }

  SweepResult out;
  out.jobs = RequireInt<int>(doc, "jobs");
  out.wall_seconds = RequireNumber(doc, "wall_seconds");

  const JsonValue* cells = doc.Find("cells");
  if (!cells || cells->type != JsonValue::Type::kArray) {
    throw std::runtime_error("tdtcp-sweep: missing cells");
  }
  for (const JsonValue& jc : cells->array) {
    SweepCell cell;
    if (const JsonValue* v = jc.Find("label")) cell.label = v->string;
    if (const JsonValue* v = jc.Find("variant")) {
      cell.variant = VariantFromName(v->string);
    }
    if (const JsonValue* v = jc.Find("schedule")) cell.schedule_label = v->string;
    if (const JsonValue* v = jc.Find("qdisc")) cell.qdisc_label = v->string;
    cell.duration = SimTime::Picos(RequireInt<std::int64_t>(jc, "duration_ps"));

    if (const JsonValue* runs = jc.Find("runs")) {
      for (const JsonValue& jr : runs->array) {
        SweepRun run;
        run.seed = RequireInt<std::uint64_t>(jr, "seed");
        run.result.variant = cell.variant;
        run.result.duration = cell.duration;
        if (const JsonValue* metrics = jr.Find("metrics")) {
          for (const MetricDef& m : MetricTable()) {
            const JsonValue* v = FindNumber(*metrics, m.name);
            if (v && m.set) m.set(run.result, v->number);
          }
        }
        cell.runs.push_back(std::move(run));
      }
    }

    if (const JsonValue* aggs = jc.Find("aggregates")) {
      for (const MetricDef& m : MetricTable()) {
        const JsonValue* js = aggs->Find(m.name);
        if (!js) continue;
        MetricStats s;
        s.mean = RequireNumber(*js, "mean");
        s.stddev = RequireNumber(*js, "stddev");
        s.ci95 = RequireNumber(*js, "ci95");
        s.n = RequireInt<std::size_t>(*js, "n");
        cell.metrics.emplace_back(m.name, s);
      }
    }
    out.cells.push_back(std::move(cell));
  }
  return out;
}

SweepResult ReadSweepJson(const std::string& path) {
  return SweepFromJson(ReadTextFile(path));
}

// --- microbenchmark serialization -------------------------------------------

const BenchRun* BenchReport::Find(const std::string& name) const {
  for (const BenchRun& r : runs) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::string BenchToJson(const BenchReport& report) {
  std::string out;
  out += "{\"schema\":\"";
  out += kBenchSchemaVersion;
  out += "\",\"context\":\"" + EscapeJson(report.context) + "\"";
  out += ",\"runs\":[";
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const BenchRun& r = report.runs[i];
    if (i) out += ",";
    out += "{\"name\":\"" + EscapeJson(r.name) + "\"";
    out += ",\"real_time_ns\":" + NumberToJson(r.real_time_ns);
    out += ",\"cpu_time_ns\":" + NumberToJson(r.cpu_time_ns);
    out += ",\"iterations\":" + NumberToJson(r.iterations);
    out += ",\"items_per_second\":" + NumberToJson(r.items_per_second);
    out += ",\"counters\":{";
    std::size_t c = 0;
    for (const auto& [name, value] : r.counters) {
      if (c++) out += ",";
      out += "\"" + EscapeJson(name) + "\":" + NumberToJson(value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void WriteBenchJson(const std::string& path, const BenchReport& report) {
  WriteTextFile(path, BenchToJson(report));
}

BenchReport BenchFromJson(const std::string& json) {
  const JsonValue doc = ParseJson(json);
  const JsonValue* schema = doc.Find("schema");
  if (!schema || schema->string != kBenchSchemaVersion) {
    throw std::runtime_error("tdtcp-bench: unsupported schema");
  }
  BenchReport out;
  if (const JsonValue* v = doc.Find("context")) out.context = v->string;
  const JsonValue* runs = doc.Find("runs");
  if (!runs || runs->type != JsonValue::Type::kArray) {
    throw std::runtime_error("tdtcp-bench: missing runs");
  }
  for (const JsonValue& jr : runs->array) {
    BenchRun r;
    const JsonValue* name = jr.Find("name");
    if (!name || name->type != JsonValue::Type::kString || name->string.empty()) {
      throw std::runtime_error("tdtcp-bench: run without a name");
    }
    r.name = name->string;
    r.real_time_ns = RequireNumber(jr, "real_time_ns");
    r.cpu_time_ns = RequireNumber(jr, "cpu_time_ns");
    r.iterations = RequireNumber(jr, "iterations");
    r.items_per_second = RequireNumber(jr, "items_per_second");
    if (const JsonValue* counters = jr.Find("counters")) {
      for (const auto& [cname, value] : counters->object) {
        r.counters[cname] = value.NumberOr(0);
      }
    }
    out.runs.push_back(std::move(r));
  }
  return out;
}

BenchReport ReadBenchJson(const std::string& path) {
  return BenchFromJson(ReadTextFile(path));
}

// --- CSV --------------------------------------------------------------------

// Columns follow MetricTable, so every row matches the header; an
// aggregate the cell lacks is an empty field.
void WriteSweepCsv(const std::string& path, const SweepResult& sweep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot open " + path);

  std::fprintf(f, "label,variant,schedule,qdisc,duration_ms,seed");
  for (const MetricDef& m : MetricTable()) {
    std::fprintf(f, ",%s", m.name.c_str());
  }
  std::fprintf(f, "\n");

  for (const SweepCell& cell : sweep.cells) {
    for (const SweepRun& run : cell.runs) {
      std::fprintf(f, "%s,%s,%s,%s,%.6g,%llu", cell.label.c_str(),
                   VariantName(cell.variant), cell.schedule_label.c_str(),
                   cell.qdisc_label.c_str(), cell.duration.millis_f(),
                   static_cast<unsigned long long>(run.seed));
      for (const MetricDef& m : MetricTable()) {
        std::fprintf(f, ",%.17g", m.get(run.result));
      }
      std::fprintf(f, "\n");
    }
    for (const auto& [row, field] : {std::pair{"mean", &MetricStats::mean},
                                     std::pair{"stddev", &MetricStats::stddev},
                                     std::pair{"ci95", &MetricStats::ci95}}) {
      std::fprintf(f, "%s,%s,%s,%s,%.6g,%s", cell.label.c_str(),
                   VariantName(cell.variant), cell.schedule_label.c_str(),
                   cell.qdisc_label.c_str(), cell.duration.millis_f(), row);
      for (const MetricDef& m : MetricTable()) {
        const MetricStats* s = FindStats(cell, m.name);
        std::fputc(',', f);
        if (s) std::fprintf(f, "%.17g", s->*field);
      }
      std::fprintf(f, "\n");
    }
  }
  std::fclose(f);
}

}  // namespace tdtcp
