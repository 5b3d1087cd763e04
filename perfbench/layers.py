"""Per-layer metrics from the spans of a traced run.

Layers are the package modules. A span's layer is the prefix of its name
(``parafac.mttkrp`` belongs to parafac, the layer that calls it). ``cli``
spans are the CLI commands a pass replays; their self time is the glue
between module calls. Every layer reports all of its metrics on every
workload, as 0 where the workload does not call it.
"""

from __future__ import annotations

import measure

LAYERS = ("synth", "ingest", "tensor", "parafac", "report", "seqmine", "lstm", "cli")


def latency(results) -> dict | None:
    samples = [s for res in results for s in res.get("latencies", ())]
    return measure.latency_summary(samples) if samples else None


def layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict:
    spans = tracer.spans
    selfs = measure.self_times([(s[0], s[1], s[3], s[4]) for s in spans])
    by_id = {s[0]: s for s in spans}

    def ancestors(span):
        while span[1] is not None:
            span = by_id[span[1]]
            yield span[2]

    def named(name, inside=None, outside=None):
        return [s for s in spans if s[2] == name
                and (inside is None or inside in ancestors(s))
                and (outside is None or outside not in ancestors(s))]

    def dur(group):
        return sum(s[4] - s[3] for s in group)

    def total(group, key):
        return sum(s[5].get(key, 0) for s in group)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m: dict = {}
    gen = named("synth.generate")
    m["synth.generate_s"] = (dur(gen), "s")
    m["synth.jobs_written"] = (total(gen, "jobs"), "count")

    parse = named("ingest.parse_maintenance")
    build = named("ingest.build_tensor")
    m["ingest.parse_maintenance_s"] = (dur(parse), "s")
    m["ingest.rows_parsed"] = (total(parse, "rows"), "count")
    m["ingest.rows_per_s"] = (ratio(total(parse, "rows"), dur(parse)), "1/s")
    m["ingest.rejected_rows"] = (total(parse, "rejected"), "count")
    m["ingest.build_tensor_s"] = (dur(build), "s")
    m["ingest.discarded_events"] = (total(build, "discarded"), "count")

    m["tensor.save_s"] = (dur(named("tensor.save")), "s")
    m["tensor.load_s"] = (dur(named("tensor.load")), "s")
    m["tensor.file_bytes"] = (total(named("tensor.save"), "bytes"), "B")
    m["tensor.entries"] = (total(build, "entries"), "count")
    m["tensor.nnz"] = (total(build, "nnz"), "count")

    als = named("parafac.cp_als")
    mttkrp = named("parafac.mttkrp")
    compose = named("parafac.cp_compose")
    # every ALS sweep solves mode 1 exactly once
    sweeps = sum(1 for s in named("parafac.mttkrp", inside="parafac.cp_als")
                 if s[5].get("mode") == 1)
    m["parafac.cp_als_s"] = (dur(als), "s")
    m["parafac.iterations"] = (total(als, "iterations"), "count")
    m["parafac.sweeps"] = (sweeps, "count")
    m["parafac.ms_per_sweep"] = (ratio(dur(als), sweeps, 1e3), "ms")
    m["parafac.mttkrp_calls"] = (len(mttkrp), "count")
    m["parafac.mttkrp_s"] = (dur(mttkrp), "s")
    m["parafac.cp_compose_calls"] = (len(compose), "count")
    m["parafac.cp_compose_s"] = (dur(compose), "s")
    m["parafac.fit"] = (ratio(total(als, "fit"), len(als)), "1")
    m["parafac.mttkrp_gflop_computed"] = (total(mttkrp, "flop") / 1e9, "GFLOP")
    m["parafac.mttkrp_gbytes_computed"] = (total(mttkrp, "bytes") / 1e9, "GB")

    export = named("report.export")
    m["report.export_s"] = (dur(export), "s")
    m["report.files_written"] = (total(export, "files"), "count")

    m["seqmine.extract_s"] = (dur(named("seqmine.extract")), "s")
    m["seqmine.differential_s"] = (dur(named("seqmine.differential")), "s")
    m["seqmine.windows"] = (total(named("seqmine.count_windows"), "windows"), "count")
    m["seqmine.count_pattern_calls"] = (len(named("seqmine.count_pattern")), "count")

    train = named("lstm.train")
    eval_pack = named("lstm.pack_batch", inside="lstm.perplexity")
    train_pack = named("lstm.pack_batch", inside="lstm.train", outside="lstm.perplexity")
    predict = sorted(s[4] - s[3] for s in named("lstm.predict"))
    m["lstm.train_s"] = (dur(train), "s")
    m["lstm.epoch_s"] = (ratio(dur(train), total(train, "epochs")), "s")
    m["lstm.train_items_per_s"] = (ratio(total(train, "items"), dur(train)), "1/s")
    m["lstm.train_useful_slot_ratio"] = (
        ratio(total(train_pack, "items"), total(train_pack, "slots")), "1")
    m["lstm.eval_useful_slot_ratio"] = (
        ratio(total(eval_pack, "items"), total(eval_pack, "slots")), "1")
    m["lstm.perplexity_s"] = (dur(named("lstm.perplexity", outside="lstm.train")), "s")
    m["lstm.save_s"] = (dur(named("lstm.save")), "s")
    m["lstm.load_s"] = (dur(named("lstm.load")), "s")
    m["lstm.predict_calls"] = (len(predict), "count")
    m["lstm.predict_p50_ms"] = (measure.percentile(predict, 50) * 1e3 if predict else 0.0, "ms")
    p99_ok = predict and measure.samples_beyond(len(predict), 99) >= measure.MIN_BEYOND
    m["lstm.predict_p99_ms"] = (measure.percentile(predict, 99) * 1e3 if p99_ok else 0.0, "ms")

    m["cli.commands"] = (sum(1 for s in spans if s[2].startswith("cli.")), "count")
    for layer in LAYERS:
        own = sum(selfs[s[0]] for s in spans if s[2].split(".")[0] == layer)
        m[f"{layer}.self_s"] = (own, "s")

    m["trace.spans"] = (len(spans), "count")
    m["trace.untraced_run_s"] = (untraced_s, "s")
    m["trace.traced_run_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m
