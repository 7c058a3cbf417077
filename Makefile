# Convenience targets; `make verify` is the tier-1 gate.

.PHONY: all build test verify fmt perf-smoke perf-pairs profile repro figures crash-matrix crash-explore metrics-smoke freespace-smoke backend-smoke scrub-smoke chaos-soak clean

all: build

build:
	dune build @all

test:
	dune runtest

# the full gate: everything compiles, every suite passes, the
# full-scale default-seed pins hold, the paper's figures regenerate
# byte for byte with every shape check passing, the crash-consistency
# smoke matrix and crash exploration come back fsck-clean, the
# observability pipeline emits a parseable trace + metrics snapshot,
# and the free-space, backend and scrub smokes pass
verify:
	dune build
	dune runtest
	$(MAKE) perf-smoke
	$(MAKE) repro
	$(MAKE) crash-matrix
	$(MAKE) crash-explore
	$(MAKE) metrics-smoke
	$(MAKE) freespace-smoke
	$(MAKE) backend-smoke
	$(MAKE) scrub-smoke

# full-scale bit-identity gate: one round of each layered-benchmark
# workload. Every run checks its default-seed pins (image digests, score
# CRCs and blocks_allocated of the 300-day serial and parallel replays
# and of the 30-day seqio images) and exits nonzero on a mismatch.
# About 2.5 minutes on a 2-CPU machine.
perf-smoke:
	@for w in age-serial age-parallel io-aged; do \
		echo "== perfbench $$w =="; \
		python3 perfbench/run.py --workload $$w --seconds 1 || exit 1; \
	done

# paired perfbench runs of a base revision against the working tree,
# alternating which side goes first; prints each side's quartiles per
# end-to-end metric, the change's win count and whether the gain rule
# (9 of 10 wins and a median gap wider than the base's quartile
# spread) holds. PAIRS and SEED are passed on only when set; the
# script's own defaults apply otherwise. Not in verify: 10 age-serial
# pairs take about 20 minutes on a 2-CPU machine.
BASE ?= HEAD
W ?= age-serial
perf-pairs:
	python3 scripts/perf_pairs.py --base $(BASE) --workload $(W) $(if $(PAIRS),--pairs $(PAIRS)) $(if $(SEED),--seed $(SEED))

# a function-level CPU profile of one command: scripts/sampler.c,
# preloaded, samples the process's own PC on ITIMER_PROF, and
# scripts/profile.py resolves the samples against a copy of the exact
# binary that ran. CMD is a built executable with its arguments, not
# `dune exec` (see scripts/profile.py). Not in verify.
CMD ?= _build/default/bin/ffs_age.exe -q
profile: build
	python3 scripts/profile.py -- $(CMD)

# the paper reproduction at full scale: regenerate every figure's CSV
# into results/ (three 300-day replays, seqio sweeps, hot files), fail
# if any committed CSV changed, and fail if any of the shape checks
# against the paper fails (ffs_figures exits nonzero). Then age the
# default 300-day image with ffs_age and require its day,layout_score
# series to equal Figure 2's day,ffs columns byte for byte: the tool
# ages the image the figure reports. About 25 s on a 2-CPU machine.
repro:
	dune exec bin/ffs_figures.exe -- --csv-dir results --quiet
	git diff --exit-code results/
	@echo "== ffs_age --csv vs results/fig2_ffs_vs_realloc.csv =="
	@dune exec bin/ffs_age.exe -- -q --csv /tmp/ffs_repro_age.csv >/dev/null
	@test "$$(head -n 1 /tmp/ffs_repro_age.csv | cut -d, -f1,2)" = "day,layout_score" \
		&& test "$$(head -n 1 results/fig2_ffs_vs_realloc.csv | cut -d, -f1,2)" = "day,ffs" \
		|| { echo "unexpected CSV headers"; exit 1; }
	@tail -n +2 /tmp/ffs_repro_age.csv | cut -d, -f1,2 > /tmp/ffs_repro_age.cols
	@tail -n +2 results/fig2_ffs_vs_realloc.csv | cut -d, -f1,2 > /tmp/ffs_repro_fig2.cols
	@cmp /tmp/ffs_repro_age.cols /tmp/ffs_repro_fig2.cols \
		|| { echo "ffs_age's score series differs from Figure 2's ffs column"; exit 1; }
	@echo "ffs_age series equals Figure 2's ffs column"
	@rm -f /tmp/ffs_repro_age.csv /tmp/ffs_repro_age.cols /tmp/ffs_repro_fig2.cols

# crash-consistency smoke: a small ground-truth workload through
# {0,1,3} injected crashes on both allocators (each crash is torn
# metadata + fsck-with-repair mid-replay), plus one standalone
# inject->repair->re-audit round, then the 30-day paper replay through
# 3 crashes on both allocators, at a fault seed whose plans orphan
# files (the metrics snapshot must count an orphan_file injection);
# every leg must exit 0
crash-matrix:
	@for crashes in 0 1 3; do \
		for alloc in "" "--realloc"; do \
			echo "== ffs_age --crashes $$crashes $${alloc:-(traditional)} =="; \
			dune exec bin/ffs_age.exe -- --fs small --days 10 \
				--workload ground-truth --crashes $$crashes \
				--fault-seed 97 $$alloc -q || exit 1; \
		done; \
	done
	@echo "== ffs_fsck inject/repair/re-audit =="
	@dune exec bin/ffs_fsck.exe -- --fs small --days 10 --faults 12 -q
	@for alloc in "" "--realloc"; do \
		echo "== ffs_age --fs paper --days 30 --crashes 3 $${alloc:-(traditional)} =="; \
		dune exec bin/ffs_age.exe -- --fs paper --days 30 --crashes 3 \
			--fault-seed 666 $$alloc -q \
			--metrics-out /tmp/ffs_crash_paper_metrics.json || exit 1; \
		grep -q '"class":"orphan_file"' /tmp/ffs_crash_paper_metrics.json \
			|| { echo "fault seed 666 injected no orphan_file"; exit 1; }; \
	done
	@rm -f /tmp/ffs_crash_paper_metrics.json

# exhaustive crash-point exploration: on a small aged image and on the
# 30-day paper image, every crash prefix of each multi-write operation
# class (plus bounded write reorderings) must repair to a clean audit
# with no user data lost
crash-explore:
	@echo "== ffs_fsck --explore =="
	@dune exec bin/ffs_fsck.exe -- --fs small --days 5 --explore -q
	@echo "== ffs_fsck --fs paper --days 30 --explore =="
	@dune exec bin/ffs_fsck.exe -- --fs paper --days 30 --explore -q

# observability smoke: a short aging run with the tracer and metrics
# sink on (the JSONL and snapshot must come out non-empty), plus the
# obs unit suite's replay-smoke group, which checks the counters
# against the allocator's own accounting
metrics-smoke:
	@echo "== ffs_age --trace --metrics-out =="
	@dune exec bin/ffs_age.exe -- --fs small --days 10 -q \
		--trace /tmp/ffs_smoke_trace.jsonl --metrics-out /tmp/ffs_smoke_metrics.json
	@test -s /tmp/ffs_smoke_trace.jsonl || { echo "empty trace"; exit 1; }
	@grep -q ffs_alloc_blocks_total /tmp/ffs_smoke_metrics.json \
		|| { echo "metrics snapshot missing ffs_alloc_blocks_total"; exit 1; }
	@rm -f /tmp/ffs_smoke_trace.jsonl /tmp/ffs_smoke_metrics.json
	@echo "== obs replay smoke suite =="
	@dune exec test/test_obs.exe -- test smoke -q

# formatting check: the enforced surface is the dune files themselves
# (dune-project sets (formatting (enabled_for dune)) because the build
# container ships no ocamlformat), so this needs only dune and CI runs
# it as a separate job
fmt:
	dune build @fmt

# storage-backend smoke: the same small aging run on the in-heap store
# and the mmap'd file store must produce bit-identical images
# (ffs_inspect --digest on both), the full fault->repair pipeline
# must come back clean when the volume lives in an mmap'd file, and
# one seed must age one image whatever the flags: --jobs 1, --jobs 2,
# --crashes 0 and a checkpointed run all give the same digest
backend-smoke:
	@echo "== ffs_age --backend mmap vs --backend bytes =="
	@dune exec bin/ffs_age.exe -- --fs small --days 5 --workload ground-truth -q \
		--backend mmap --image /tmp/ffs_backend_smoke_mmap.img
	@dune exec bin/ffs_age.exe -- --fs small --days 5 --workload ground-truth -q \
		--backend bytes --image /tmp/ffs_backend_smoke_heap.img
	@a=$$(dune exec bin/ffs_inspect.exe -- --image /tmp/ffs_backend_smoke_mmap.img --digest); \
	b=$$(dune exec bin/ffs_inspect.exe -- --image /tmp/ffs_backend_smoke_heap.img --digest); \
	if [ "$$a" = "$$b" ] && [ -n "$$a" ]; then echo "backend digests match: $$a"; \
	else echo "backend digest mismatch: mmap=$$a bytes=$$b"; exit 1; fi
	@echo "== ffs_fsck --backend mmap inject/repair =="
	@dune exec bin/ffs_fsck.exe -- --fs small --days 5 --faults 8 --backend mmap -q \
		| grep -q "image is clean" || { echo "mmap fsck pipeline not clean"; exit 1; }
	@rm -f /tmp/ffs_backend_smoke_mmap.img /tmp/ffs_backend_smoke_heap.img
	@echo "== ffs_age one image: --jobs 1 / --jobs 2 / --crashes 0 / --checkpoint-every 5 =="
	@rm -rf /tmp/ffs_one_image_ck
	@set -e; digests=""; i=0; \
	for flags in "--jobs 1" "--jobs 2" "--crashes 0" \
		"--checkpoint-every 5 --checkpoint-dir /tmp/ffs_one_image_ck"; do \
		i=$$((i + 1)); \
		dune exec bin/ffs_age.exe -- --fs small --days 20 -q $$flags \
			--image /tmp/ffs_one_image_$$i.img >/dev/null; \
		d=$$(dune exec bin/ffs_inspect.exe -- --image /tmp/ffs_one_image_$$i.img --digest); \
		echo "  $$flags: $$d"; \
		digests="$$digests $$d"; \
	done; \
	rm -rf /tmp/ffs_one_image_ck /tmp/ffs_one_image_*.img; \
	n=$$(echo $$digests | tr ' ' '\n' | sort -u | wc -l); \
	if [ "$$n" -eq 1 ] && [ -n "$$d" ]; then echo "one image: $$d"; \
	else echo "one seed aged $$n different images"; exit 1; fi
	@echo "== ffs_age --seeds: --profile and --workload reach the grid, grid-less flags exit 2 =="
	@set -e; seeds="--fs small --seeds 2 --days 3 --jobs 1 -q"; \
	base=$$(dune exec bin/ffs_age.exe -- $$seeds); \
	for flags in "--profile news" "--workload ground-truth"; do \
		out=$$(dune exec bin/ffs_age.exe -- $$seeds $$flags); \
		if [ -z "$$out" ] || [ "$$out" = "$$base" ]; then \
			echo "--seeds ignored $$flags"; exit 1; fi; \
		echo "  $$flags: report differs"; \
	done; \
	for flags in "--realloc" "--cluster-policy best-fit" "--backend mmap" "--scrub-every 1"; do \
		rc=0; dune exec bin/ffs_age.exe -- $$seeds $$flags >/dev/null 2>&1 || rc=$$?; \
		if [ "$$rc" -ne 2 ]; then echo "--seeds $$flags exited $$rc, not 2"; exit 1; fi; \
		echo "  $$flags: exit 2"; \
	done

# self-healing storage smoke: the resilient (checksummed) store must be
# bit-identical to the raw store when no faults are injected (jobs 1
# and 2), and a checkpointed aging run with seeded device faults killed
# with SIGKILL mid-flight must resume to an image a zero-fault
# no-repair fsck accepts — scrub-and-repair heals everything the
# injected transients, latent bad chunks, bit rot and torn syncs broke
scrub-smoke:
	@dune build bin/ffs_age.exe bin/ffs_fsck.exe bin/ffs_inspect.exe
	@sh test/scrub_smoke.sh

# chaos soak: the scrub smoke's chaos leg cranked up — long runs at
# aggressive fault rates: a 600-day checkpointed run on faulty devices,
# then a realloc best-fit run that also crashes three times mid-replay,
# so crash repair and scrub-and-repair meet on one volume. Each image
# must pass a zero-fault no-repair fsck. Not part of `make verify` (it
# takes minutes); CI runs it on a schedule
chaos-soak:
	@dune build bin/ffs_age.exe bin/ffs_fsck.exe
	@echo "== chaos soak: 600-day faulty aging run =="
	@_build/default/bin/ffs_age.exe --fs small --days 600 --seed 1201 \
		--fault-seed 97 --workload ground-truth -q \
		--store-faults transient=0.005,latent=3,bitrot=24,torn=6,horizon=300 \
		--scrub-every 1 --checkpoint-every 10 \
		--image /tmp/ffs_chaos_soak.img
	@_build/default/bin/ffs_fsck.exe --image /tmp/ffs_chaos_soak.img \
		--faults 0 --no-repair -q >/dev/null \
		|| { echo "chaos soak image is not fsck-clean"; exit 1; }
	@rm -f /tmp/ffs_chaos_soak.img
	@echo "== chaos soak: crashes on faulty devices =="
	@_build/default/bin/ffs_age.exe --fs small --days 120 --seed 4242 \
		--fault-seed 97 --workload ground-truth -q \
		--realloc --cluster-policy best-fit --crashes 3 \
		--store-faults transient=0.005,latent=3,bitrot=24,torn=6,horizon=120 \
		--scrub-every 1 --image /tmp/ffs_chaos_soak_crash.img
	@_build/default/bin/ffs_fsck.exe --image /tmp/ffs_chaos_soak_crash.img \
		--faults 0 --no-repair -q >/dev/null \
		|| { echo "chaos soak crash image is not fsck-clean"; exit 1; }
	@rm -f /tmp/ffs_chaos_soak_crash.img
	@echo "chaos soak: OK"

# ffs_inspect --freespace smoke: age a small image, dump the per-group
# free-extent histogram, and make sure the table actually came out
freespace-smoke:
	@echo "== ffs_inspect --freespace =="
	@dune exec bin/ffs_age.exe -- --fs small --days 5 --workload ground-truth -q \
		--image /tmp/ffs_freespace_smoke.img
	@dune exec bin/ffs_inspect.exe -- --image /tmp/ffs_freespace_smoke.img --freespace \
		| grep -q "free extents" || { echo "no free-extent histogram"; exit 1; }
	@rm -f /tmp/ffs_freespace_smoke.img

figures:
	dune exec bin/ffs_figures.exe -- --csv-dir results

clean:
	dune clean
