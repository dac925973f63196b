.PHONY: test acceptance

# the sources under src/ are tested directly, without an installed copy
PYTEST = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest

test:
	$(PYTEST) -q

acceptance:
	$(PYTEST) -v -s tests/test_acceptance.py
