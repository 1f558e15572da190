"""The verify suites: each oracle verdict reaches exactly the checks built on it."""

import pytest

from angulated import artheory, enumerate_wide, validate_params, verify

SUB_AR = "subcategory AR angles pass the definition oracle"
COVER = "covers verified by the raw cover test"
THEOREM_B = "cover <-> AR angle equivalence holds throughout"
SPLIT = "split epi + split mono iff iso (brute force)"


def _negate(fn):
    return lambda *args: not fn(*args)


@pytest.mark.parametrize(
    "module, name, failing",
    [
        (artheory, "is_ar_angle", {SUB_AR, THEOREM_B}),
        (artheory, "is_cover", {COVER, THEOREM_B}),
        (verify, "block_iso_oracle", {SPLIT}),
    ],
)
def test_wrong_oracle_fails_exactly_its_checks(monkeypatch, module, name, failing):
    p = validate_params(2, 2, 3)
    monkeypatch.setattr(module, name, _negate(getattr(module, name)))
    assert {c.name for c in verify.verify_all(p) if not c.ok} == failing


def test_ar_suite_asks_each_oracle_once_per_member(monkeypatch, p449):
    calls = {"is_ar_angle": 0, "is_cover": 0, "ar_angle_in": 0}

    def counting(name):
        fn = getattr(artheory, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(artheory, name, counting(name))
    assert all(c.ok for c in verify.verify_ar(p449))
    pairs = sum(len(spec.indices) for spec in enumerate_wide(p449))
    assert pairs == 168
    # ar_angle_in runs at pos (inside theorem_b_check) and at pos + period
    assert calls == {"is_ar_angle": pairs, "is_cover": pairs, "ar_angle_in": 2 * pairs}
