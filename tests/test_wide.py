from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from angulated import (
    SubcatSpec,
    bar,
    closure_rules,
    empty_spec,
    enumerate_wide,
    full_spec,
    indec,
    is_l_periodic,
    is_semisimple_wide,
    is_wide,
    is_wide_oracle,
    join_pos,
    models,
    periodic_rules,
    semisimple_rules,
    unbar,
    validate_params,
    wide_oracle_witness,
)

from oracles import admissible, wide_counts


def spec(params, *indices):
    return SubcatSpec(params, tuple(indices))


class TestSemisimple:
    def test_spread_out_set(self, p449):
        assert is_semisimple_wide(spec(p449, 1, 5, 9))  # distances {4, 8}

    def test_empty_and_singletons(self, p449):
        assert is_semisimple_wide(empty_spec(p449))
        for q in range(1, p449.period + 1):
            assert is_semisimple_wide(spec(p449, q))

    def test_close_pair_fails(self, p449):
        assert not is_semisimple_wide(spec(p449, 1, 2))

    def test_too_far_pair_fails(self, p449):
        # distance m = 9 exceeds m - 1
        assert not is_semisimple_wide(spec(p449, 1, 10))


class TestPeriodic:
    def test_two_classes(self, p449):
        assert is_l_periodic(spec(p449, 1, 2, 5, 6, 9, 10))

    def test_empty(self, p449):
        assert is_l_periodic(empty_spec(p449))

    def test_partial_class_fails(self, p449):
        assert not is_l_periodic(spec(p449, 1, 5))  # misses 9


class TestIsWide:
    def test_periodic_example(self, p449):
        assert is_wide(spec(p449, 1, 2, 5, 6, 9, 10))

    def test_close_pair_fails_both_branches(self, p449):
        assert not is_wide(spec(p449, 1, 2))

    def test_full_set(self, any_params):
        assert is_wide(full_spec(any_params))
        assert is_l_periodic(full_spec(any_params))


class TestWideOracle:
    def test_periodic_example_passes(self, p449):
        assert is_wide_oracle(spec(p449, 1, 2, 5, 6, 9, 10))

    def test_failure_produces_witness(self, p449):
        w = wide_oracle_witness(spec(p449, 1, 2))
        assert w is not None
        src, tgt, middle = w
        # the witness names a connecting morphism between members whose
        # minimal angle has a non-member middle vertex
        assert spec(p449, 1, 2).contains_pos(src)
        assert spec(p449, 1, 2).contains_pos(tgt)
        assert 1 <= tgt - src <= p449.l - 1
        assert not spec(p449, 1, 2).contains_pos(middle)

    def test_empty_passes(self, p449):
        assert is_wide_oracle(empty_spec(p449))

    @pytest.mark.parametrize("triple", [(2, 2, 3), (2, 3, 4)])
    def test_matches_classification_exhaustively(self, triple):
        from angulated import validate_params

        p = validate_params(*triple)
        for n in range(p.period + 1):
            for s in combinations(range(1, p.period + 1), n):
                sp = SubcatSpec(p, s)
                assert is_wide(sp) == is_wide_oracle(sp), s


class TestEnumerateWide:
    def test_count_smallest(self, p223):
        specs = enumerate_wide(p223)
        assert len(specs) == 8
        assert empty_spec(p223) in specs
        assert full_spec(p223) in specs

    def test_count_paper_triple(self, p449):
        assert len(enumerate_wide(p449)) == 58

    def test_equals_power_set_filter(self, p234):
        brute = [
            s
            for n in range(p234.period + 1)
            for s in combinations(range(1, p234.period + 1), n)
            if is_wide(SubcatSpec(p234, s))
        ]
        assert [sp.indices for sp in enumerate_wide(p234)] == sorted(brute)

    def test_all_enumerated_pass_oracle(self, any_params):
        for sp in enumerate_wide(any_params):
            assert is_wide_oracle(sp)

    def test_counts_are_the_closed_form_up_to_period_18(self):
        # specs and (spec, member) pairs at every admissible triple with
        # period <= 18, against the closed form of the cyclic gap count
        triples = admissible(18)
        assert len(triples) == 23
        for triple in triples:
            p = validate_params(*triple)
            specs = enumerate_wide(p)
            assert wide_counts(p) == (len(specs), sum(len(s.indices) for s in specs)), triple

    def test_lexicographic_order(self, p449):
        out = [sp.indices for sp in enumerate_wide(p449)]
        assert out == sorted(out)
        assert out[0] == ()


class TestPeriodicBranchClosure:
    def test_translation_keeps_periodic_specs_wide(self, any_params):
        p = any_params
        for sp in enumerate_wide(p):
            if not is_l_periodic(sp):
                continue
            for r in range(p.l):
                translated = SubcatSpec(
                    p, tuple((q + r - 1) % p.period + 1 for q in sp.indices)
                )
                assert is_l_periodic(translated) and is_wide(translated)

    def test_unions_of_periodic_specs_stay_wide(self, p449):
        periodic = [sp for sp in enumerate_wide(p449) if is_l_periodic(sp)]
        for a in periodic:
            for b in periodic:
                union = SubcatSpec(p449, a.indices + b.indices)
                assert is_wide(union) and is_wide_oracle(union)


class TestBarUnbar:
    def test_round_trip_on_wide_specs(self, any_params):
        for sp in enumerate_wide(any_params):
            assert unbar(any_params, bar(sp)) == sp

    def test_membership_predicate(self, p449):
        pred = bar(spec(p449, 1, 5, 9))
        assert pred(join_pos(p449, -1, 5))
        assert not pred(2)
        assert pred(9 + 3 * p449.period)

    def test_bijection_with_shift_closed_wide_specs(self, p234):
        # specs are shift-closed by construction, so the image of the wide
        # specs under bar/unbar is exactly the enumerated family
        enumerated = enumerate_wide(p234)
        image = {unbar(p234, bar(sp)) for sp in enumerated}
        assert image == set(enumerated)

    def test_spec_membership_of_objects(self, p449):
        sp = spec(p449, 1, 2, 5, 6, 9, 10)
        assert sp.contains_obj(indec(join_pos(p449, -1, 10)))
        assert not sp.contains_obj(indec(4))


class TestSpecWindow:
    @pytest.mark.parametrize("index", [0, 13])
    def test_out_of_window_index_is_bad_distance(self, p449, index):
        from angulated import BadDistance

        with pytest.raises(BadDistance, match=f"index {index} outside"):
            SubcatSpec(p449, (1, index))
        with pytest.raises(ValueError):  # library callers see no change
            SubcatSpec(p449, (index,))


# the two small triples and the four verify-ladder triples (periods 4..12)
RULE_TRIPLES = [(2, 2, 3), (2, 3, 4), (4, 4, 9), (2, 6, 7), (6, 3, 10), (10, 2, 11)]


@cache
def power_set(triple) -> tuple:
    p = validate_params(*triple)
    return tuple(
        SubcatSpec(p, s)
        for n in range(p.period + 1)
        for s in combinations(range(1, p.period + 1), n)
    )


def power_set_filter(triple, pred) -> list:
    return sorted(sp.indices for sp in power_set(triple) if pred(sp))


class TestRuleModels:
    """Each rule family's models are the power-set filter of its predicate."""

    @pytest.mark.parametrize("triple", RULE_TRIPLES)
    @pytest.mark.parametrize(
        "rules, pred",
        [
            (semisimple_rules, is_semisimple_wide),
            (periodic_rules, is_l_periodic),
            (closure_rules, is_wide_oracle),
        ],
        ids=["semisimple", "periodic", "closure"],
    )
    def test_models_equal_the_power_set_filter(self, triple, rules, pred):
        p = validate_params(*triple)
        assert models(p, rules) == power_set_filter(triple, pred)

    @pytest.mark.parametrize("triple", RULE_TRIPLES)
    def test_union_is_the_power_set_filter_of_is_wide(self, triple):
        p = validate_params(*triple)
        union = set(models(p, semisimple_rules)) | set(models(p, periodic_rules))
        assert sorted(union) == power_set_filter(triple, is_wide)

    def test_rules_from_members_are_the_window_rules_inside_them(self, p449):
        # a spec's rules are exactly the window rules whose `given` it holds
        sp = spec(p449, 1, 2, 5, 7, 9, 10)
        window = range(1, p449.period + 1)
        for rules in (semisimple_rules, periodic_rules, closure_rules):
            inside = [
                r for r in rules(p449, window)
                if all(sp.contains_pos(x) for x in r[0])
            ]
            assert list(rules(p449, sp.indices)) == inside


def reference_witness(spec):
    """The closure witness as the oracle stated it before the rules, inline."""
    p = spec.params
    members = set(spec.indices)
    for src in spec.indices:
        for tgt in range(src + 1, src + p.l):
            if (tgt - 1) % p.period + 1 not in members:
                continue
            for r in range(1, p.d // 2 + 1):
                for middle in (src - r * p.l, tgt - r * p.l):
                    if (middle - 1) % p.period + 1 not in members:
                        return (src, tgt, middle)
    return None


@st.composite
def random_specs(draw):
    p = validate_params(*draw(st.sampled_from(RULE_TRIPLES + [(4, 6, 13), (2, 9, 10)])))
    window = range(1, p.period + 1)
    return SubcatSpec(p, tuple(draw(st.sets(st.sampled_from(window)))))


@given(random_specs())
@settings(max_examples=300, deadline=None)
def test_oracle_witness_equals_the_reference_formula(sp):
    assert wide_oracle_witness(sp) == reference_witness(sp)
