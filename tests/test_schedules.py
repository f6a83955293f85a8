import json

import numpy as np
import pytest

from rosenthal import (
    DomainError,
    MissingExponentError,
    PQSchedule,
    ValidationError,
    pq_eval,
    validate_pq,
)


class TestBetaFamily:
    def test_middle_branch(self):
        assert pq_eval(PQSchedule.beta_family(0.5), 3.0) == (1.0, 1.0)

    def test_s_five(self):
        p, q = pq_eval(PQSchedule.beta_family(0.5), 5.0)
        assert (p, q) == (4.0, 4.0)
        # constraint with equality: 4^(-1/2) + 4^(-1/2) = 1
        assert p ** (1 / (3 - 5)) + q ** (1 / (3 - 5)) == pytest.approx(1.0, abs=1e-15)

    def test_s_four_asymmetric(self):
        p, q = pq_eval(PQSchedule.beta_family(0.25), 4.0)
        assert p == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert q == pytest.approx(4.0, rel=1e-15)
        assert 1 / p + 1 / q == pytest.approx(1.0, abs=1e-15)

    def test_at_two(self):
        assert pq_eval(PQSchedule.beta_family(0.3), 2.0) == (0.5, 0.5)

    def test_below_two_rejected(self):
        with pytest.raises(DomainError):
            pq_eval(PQSchedule.beta_family(0.5), 1.9)

    def test_bad_beta(self):
        for beta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                PQSchedule.beta_family(beta)

    def test_family_always_admissible(self):
        for beta in np.linspace(0.02, 0.98, 25):
            sched = PQSchedule.beta_family(float(beta))
            for s in [2.0, 2.3, 3.0, 3.0 + 1e-9, 3.5, 4.0, 5.7, 8.0]:
                p, q = pq_eval(sched, s)
                assert validate_pq(p, q, s), (beta, s, p, q)
                if s > 3.0:
                    assert p >= 1.0 and q >= 1.0

    def test_continuity_above_three(self):
        sched = PQSchedule.beta_family(0.37)
        for s in np.linspace(3.0 + 1e-6, 8.0, 40):
            p1, q1 = pq_eval(sched, float(s))
            p2, q2 = pq_eval(sched, float(s) + 1e-9)
            assert abs(p1 - p2) < 1e-6 and abs(q1 - q2) < 1e-6


class TestValidatePQ:
    def test_boundary_at_two(self):
        assert validate_pq(0.5, 0.5, 2.0)

    def test_unit_pair_fails_above_three(self):
        assert not validate_pq(1.0, 1.0, 3.5)

    def test_four_four_at_five(self):
        assert validate_pq(4.0, 4.0, 5.0)

    def test_below_one_fails_in_middle(self):
        assert not validate_pq(0.9, 1.0, 2.5)
        assert not validate_pq(1.0, 0.9, 3.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            validate_pq(1.0, 1.0, 1.0)


class TestCustomSchedule:
    def test_lookup(self):
        sched = PQSchedule.custom({3.0: (1.0, 1.0), 5.0: (4.0, 4.0)})
        assert pq_eval(sched, 5.0) == (4.0, 4.0)

    def test_missing_entry(self):
        sched = PQSchedule.custom({3.0: (1.0, 1.0)})
        with pytest.raises(MissingExponentError):
            pq_eval(sched, 4.0)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValidationError):
            PQSchedule.custom({3.5: (1.0, 1.0)})

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            PQSchedule.custom({})

    @pytest.mark.parametrize("entry", [5, [None, 1], [1, 2, 3], "ab"],
                             ids=["number", "null", "triple", "string"])
    def test_entry_not_a_pair_rejected(self, entry):
        named = r"^table entry at s=3\.0 must be a pair of numbers"
        with pytest.raises(ValidationError, match=named):
            PQSchedule.custom({3.0: entry})
        with pytest.raises(ValidationError, match=named):
            PQSchedule.from_dict({"kind": "custom", "table": {"3": entry}})

    def test_from_dict_names_an_unknown_kind(self):
        # Only "custom" reads a table; any other kind is unknown.
        with pytest.raises(ValidationError, match="^unknown schedule kind 'foo'$"):
            PQSchedule.from_dict({"kind": "foo", "table": {"3": [1, 1]}})


def test_json_round_trip():
    for sched in (
        PQSchedule.beta_family(0.25),
        PQSchedule.custom({2.0: (0.5, 0.5), 4.0: (2.0, 2.0)}),
    ):
        blob = json.dumps(sched.to_dict())
        back = PQSchedule.from_dict(json.loads(blob))
        for s in (2.0, 4.0) if sched.kind == "custom" else (2.0, 2.5, 3.7):
            assert pq_eval(back, s) == pq_eval(sched, s)
