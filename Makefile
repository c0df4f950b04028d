# Tier-1 gate plus every seed sweep and proof. `make ci` is what a
# pre-merge check should run.

DUNE ?= dune

.PHONY: all build test fuzz chaos-smoke recovery soak migrate fleet telemetry adversary trace profile regress experiments ci bench-check clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# Long fuzzing: the qcheck properties in test/test_fuzz.ml with
# QCHECK_LONG set, so each property runs its long_factor times more cases
# (the envelope decoder property 50x). A red run prints the command that
# replays its seed.
fuzz: build
	@out=$$(mktemp); \
	if QCHECK_LONG=1 $(DUNE) exec test/test_fuzz.exe > $$out 2>&1; then \
	  cat $$out; rm -f $$out; \
	else \
	  cat $$out; \
	  seed=$$(sed -n 's/.*qcheck random seed: \([0-9]*\).*/\1/p' $$out | head -n 1); \
	  rm -f $$out; \
	  echo "replay: QCHECK_SEED=$$seed QCHECK_LONG=1 dune exec test/test_fuzz.exe"; \
	  exit 1; \
	fi

# The six seed sweeps, one row each: target, CLI subcommand, BENCH name.
# Every sweep runs its subcommand's default seed count (chaos 10, the rest
# 20), exits non-zero on any broken invariant and writes its summary to
# BENCH_<name>.json; `overshadow-cli COMMAND --help` says what it checks.
#   chaos-smoke  hostile-world fault plans: containment, privacy, replay
#   recovery     power cut at every journal/device write site + recovery
#   soak         supervised vs unsupervised restart under lethal plans
#   migrate      live migration over a hostile channel + its crash matrix
#   fleet        multi-VMM failover and typed load shedding under load
#   adversary    every workload under the malicious-kernel personality
SWEEPS = chaos-smoke recovery soak migrate fleet adversary
chaos-smoke: SWEEP = chaos chaos
recovery:    SWEEP = crash-matrix recovery
soak:        SWEEP = soak availability
migrate:     SWEEP = migrate migration
fleet:       SWEEP = fleet fleet
adversary:   SWEEP = adversary adversary

$(SWEEPS): build
	$(DUNE) exec bin/overshadow_cli.exe -- $(word 1,$(SWEEP)) --bench-out BENCH_$(word 2,$(SWEEP)).json

# Fleet telemetry proof: the same hostile fleet scenario with the
# per-host registries disabled and enabled must charge identical model
# cycles (trace ids ride the migration wire unconditionally), and the
# enabled run must stitch every committed failover into one cross-host
# causal trace and page the burn-rate monitor on host death while a
# fault-free replay stays silent; emits BENCH_telemetry.json.
telemetry: build
	$(DUNE) exec bin/overshadow_cli.exe -- telemetry --bench-out BENCH_telemetry.json

# Flight-recorder overhead proof: run cloaked workloads under the null
# sink and under a live ring and assert both add zero model cycles over
# an untraced baseline; emits BENCH_trace_overhead.json. Then traces the
# cloaked fileio run (model cycles, event counts, the per-span-class
# latency table and the invariant verdict) into BENCH_trace_fileio.txt,
# which `make bench-check` diffs like every BENCH file.
trace: build
	$(DUNE) exec bin/overshadow_cli.exe -- trace-overhead --out BENCH_trace_overhead.json
	$(DUNE) exec bin/overshadow_cli.exe -- trace fileio --cloaked > BENCH_trace_fileio.txt

# Profiler smoke: exact cycle attribution for the cloaked fileio run,
# with the collapsed-stack (flamegraph.pl input) export.
profile: build
	$(DUNE) exec bin/overshadow_cli.exe -- profile fileio --cloaked --out BENCH_fileio.collapsed

# Perf-regression sentinel: replay the E1/E2 suite plus the key VMM
# counters against the committed bench/baselines.json; fails on any
# cycle metric drifting beyond tolerance or any counter changing at all.
# After an intentional perf change: make regress-update, commit the file.
regress: build
	$(DUNE) exec bin/overshadow_cli.exe -- regress --bench-out BENCH_regress.json

regress-update: build
	$(DUNE) exec bin/overshadow_cli.exe -- regress --update-baselines

# The E1-E10 tables: bench/main.exe prints every one from the model cycle
# counts alone, so the committed BENCH_experiments.txt must come back
# byte-identical (`make bench-check` diffs it).
experiments: build
	$(DUNE) exec bench/main.exe > BENCH_experiments.txt

ci: test fuzz chaos-smoke recovery soak migrate fleet telemetry adversary trace regress profile experiments

# Diff every committed BENCH_* file (the JSON summaries, the collapsed
# profile, the experiment tables) against HEAD, ignoring the host-clock
# keys; exits 1 on any other difference or on a BENCH file that is not
# committed. Run it after `make ci`. It is not part of `ci` because it
# compares against HEAD.
HOST_CLOCK = "(wall_s|replay_total_s|replay_mean_ms)":
bench-check:
	@head=$$(mktemp); status=0; \
	for f in BENCH_*; do \
	  if ! git cat-file -e HEAD:$$f 2>/dev/null; then \
	    echo "$$f: not committed"; status=1; continue; fi; \
	  git show HEAD:$$f | grep -Ev '$(HOST_CLOCK)' > $$head; \
	  grep -Ev '$(HOST_CLOCK)' $$f | diff -u --label HEAD:$$f --label $$f $$head - || status=1; \
	done; rm -f $$head; exit $$status

clean:
	$(DUNE) clean
