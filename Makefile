.PHONY: test acceptance bench

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
