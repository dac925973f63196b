.PHONY: test acceptance bench reports probe same pools pairs scale

# the sources under src/ are tested directly, without an installed copy
PYTEST = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest

# one 35 s benchmark run: make bench W=planted-n32|refute-n24|cli-small SEED=101
W ?= planted-n32
SEED ?= 101

test:
	$(PYTEST) -q

acceptance:
	$(PYTEST) -v -s tests/test_acceptance.py

bench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds 35 --trace 0

# the six C10 `check --json --seed 42` reports without runtime_ms, one per line,
# so that two checkouts compare with a plain diff
C10 = "example://simple2d" "example://mendel --epsilon 0" "example://mendel --epsilon 0.25" \
      "example://tetraploid --epsilon 0.1" "example://nota2" "example://mendel3d_ann --epsilon 0.2"
DROP_RUNTIME = import json, sys; b = json.load(sys.stdin); b["diagnostics"].pop("runtime_ms"); print(json.dumps(b, sort_keys=True))

# the sources that reports and probe run (set on the command line: make probe SRC=<checkout>/src)
SRC = src

reports:
	@for args in $(C10); do \
		PYTHONPATH=$(SRC) python -m evoalg.cli check $$args --json --seed 42 | python -c '$(DROP_RUNTIME)'; \
	done

# one sorted line per decision over a fixed corpus at two tolerance sets (under a minute);
# to compare with another checkout, run make same BASE=<checkout>
probe:
	@PYTHONPATH=$(SRC) python tools/probe.py

# reports and probe run on src and on $(BASE)/src, then diffed; exits non-zero on any difference,
# after counting the changed lines by corpus, tolerance set, kappa and outcome (tools/same_counts.py)
same:
	@test -n "$(BASE)" || { echo "usage: make same BASE=<checkout>" >&2; exit 2; }
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	$(MAKE) -s reports probe > "$$out/here" && $(MAKE) -s reports probe SRC="$(BASE)/src" > "$$out/base" && \
	if diff "$$out/base" "$$out/here"; then echo "reports and probe: no difference from $(BASE)"; \
	else status=$$?; python tools/same_counts.py "$$out/base" "$$out/here"; exit $$status; fi

# every item the benchmark's workload builders make for seeds 101-140, decided in this checkout and in
# $(BASE), one sorted line each (outcome, refutation kind, certificate acceptance, judgement; see
# tools/pools.py), then diffed; exits non-zero on any difference
pools:
	@test -n "$(BASE)" || { echo "usage: make pools BASE=<checkout>" >&2; exit 2; }
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	python tools/pools.py . > "$$out/here" && python tools/pools.py "$(BASE)" > "$$out/base" && \
	if diff "$$out/base" "$$out/here"; then echo "benchmark pools: no difference from $(BASE)"; else exit 1; fi

# N alternating pairs of benchmark runs of workload W (each the run_seconds of BENCHMARK.json, 35 s),
# here and in $(BASE), at seeds SEED .. SEED+N-1, the side that runs first alternating; prints each pair,
# then per end-to-end metric both sides' median and quartiles, the per-pair ratios and the wins
# (see tools/pairs.py)
N ?= 10
pairs:
	@test -n "$(BASE)" || { echo "usage: make pairs BASE=<checkout> W=<workload> N=10 SEED=<s>" >&2; exit 2; }
	@python tools/pairs.py "$(BASE)" --workload $(W) --pairs $(N) --seed $(SEED)

# best-of-3 wall time of the decision and the certificate check on planted n = 16, 32, 48, 64,
# of the decision on their complexifications at n = 32, 64 (real constants, decided on the real tensor)
# and on them re-expressed in a complex basis (complex_basis of tools/probe.py; branch b.2 over C,
# whose re-coordinatisation skips the zero coefficients of P^-1),
# of the complex-only decision at n = 16, 32, of the noncommuting,
# defective and ann_mismatch refutations at n = 24, 48 (each with the svd, eigvalsh and eig calls of one more, untimed decision), and of
# parsing planted files at n = 8, 16, 32; not part of the benchmark
# (see tools/scale.py). Fixed mmap and trim thresholds keep glibc from moving the first after the
# decisions free large blocks and from returning freed heap to the system, so that the
# check_certificate column neither depends on what the decisions allocated nor counts the page
# faults of re-growing the heap, and compares across checkouts.
scale:
	@MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=268435456 PYTHONPATH=src python tools/scale.py
