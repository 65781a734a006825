package main

// metricDef is one metric the benchmark prints, with its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system sees; every workload
// prints all six with --trace 0.
var endToEndDefs = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerDefs are the metrics of single layers; every workload prints
// all of them with --trace 1. README.md names the end-to-end metric and
// workload each one should move.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"serve.ingest.handler_ms", "ms"},
		{"serve.ingest.decode_ms", "ms"},
		{"http.ingest_ms", "ms"},
	}
	for _, kind := range queryKinds {
		defs = append(defs,
			metricDef{"serve.query." + kind + ".handler_ms", "ms"},
			metricDef{"serve.query." + kind + ".response_bytes", "bytes"})
	}
	return append(defs,
		metricDef{"http.query_ms", "ms"},
		metricDef{"serve.open_ms", "ms"},
		metricDef{"core.stream.add_batch_ms", "ms"},
		metricDef{"core.snapshot.publish_ms", "ms"},
		metricDef{"core.snapshot.sources", "count"},
		metricDef{"core.snapshot.scan_ms", "ms"},
		metricDef{"core.checkpoint.encode_ms", "ms"},
		metricDef{"core.checkpoint.bytes", "bytes"},
		metricDef{"core.checkpoint.alloc_mb", "MiB"},
		metricDef{"core.sink.save_ms", "ms"},
		metricDef{"core.sink.durable_ms", "ms"},
		metricDef{"core.sink.restore_ms", "ms"},
		metricDef{"core.sink.restore_alloc_mb", "MiB"},
		metricDef{"core.incestimate.run_ms", "ms"},
		metricDef{"core.incestimate.alloc_mb", "MiB"},
		metricDef{"engine.rounds", "count"},
		metricDef{"engine.round_ms", "ms"},
		metricDef{"engine.round_max_ms", "ms"},
		metricDef{"engine.first_round_ms", "ms"},
		metricDef{"truth.read_csv_ms", "ms"},
		metricDef{"truth.read_csv_alloc_mb", "MiB"},
		metricDef{"runtime.alloc_mb_per_op", "MiB"},
		metricDef{"runtime.gc_per_op", "count"},
		metricDef{"runtime.gc_pause_ms_per_op", "ms"},
		metricDef{"host.steal_pct", "%"},
		metricDef{"host.canary_ms", "ms"},
		metricDef{"trace.unattributed_ms", "ms"},
		metricDef{"trace.overhead_ms", "ms"},
	)
}()
