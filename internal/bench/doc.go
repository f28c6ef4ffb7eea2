// Package bench builds the two model artifacts `agcmbench` commits:
// BENCH_9.json (-bench9-json), the bit-deterministic virtual-time scheduler
// comparison CI regenerates and diffs, and BENCH_10.json (-calibrate), the
// roofline calibration loop that times real runs on the host to fit
// roofline.DefaultHost.
//
// It is not a host benchmark: host time and allocations are measured only by
// `bash benchmark/run.sh` (BENCHMARK.json).
package bench
