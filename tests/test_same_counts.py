import json

from same_counts import main

BASE = [
    json.dumps({"verdict": "evolution", "refutation": None, "diagnostics": {"branch": "a"}}),
    "planted n=32 seed=0 real | tol eig_cluster_atol=1e-5 | undetermined | None | branch=None r0=None ann_dim=None "
    "trials_used=None | notes=['numerical failure'] | lambda0=- cert=- cert_ok=-",
    "scrambled n=4 kappa=1e+03 seed=7 | tol default | evolution | None | branch=a r0=4 ann_dim=0 trials_used=0 "
    "| notes=[] | lambda0=aa cert=bb cert_ok=True",
]
HERE = [
    json.dumps({"verdict": "evolution", "refutation": None, "diagnostics": {"branch": "b.1"}}),
    "planted n=32 seed=0 real | tol eig_cluster_atol=1e-5 | undetermined | None | branch=b.2 r0=24 ann_dim=8 "
    "trials_used=1 | notes=['constructed transform failed'] | lambda0=cc cert=- cert_ok=-",
    "scrambled n=4 kappa=1e+03 seed=7 | tol default | not_evolution | NonCommuting((1, 2), 1.0) | branch=a r0=4 "
    "ann_dim=0 trials_used=0 | notes=[] | lambda0=aa cert=- cert_ok=-",
]


def test_an_unchanged_outcome_names_the_fields_that_moved(tmp_path, capsys):
    base, here = tmp_path / "base", tmp_path / "here"
    base.write_text("\n".join(BASE) + "\n")
    here.write_text("\n".join(HERE) + "\n")
    main(str(base), str(here))
    assert capsys.readouterr().out.splitlines() == [
        "changed lines: 3",
        "    1  planted | tol eig_cluster_atol=1e-5 | undetermined -> undetermined | diagnostics, notes, lambda0/cert",
        "    1  report | tol default | evolution -> evolution | diagnostics",
        "    1  scrambled | tol default | kappa=1e+03 | evolution -> not_evolution/NonCommuting",
    ]
