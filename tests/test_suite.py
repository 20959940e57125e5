"""The identity suite's trial runner: a relation is tried until its
first failure and no further.  That fixes how many draws each check
takes from the shared random stream, and so what every later check
sees."""

from functools import partial
from random import Random

import pytest

from orthlat import commutators, sampling, suite
from orthlat.eichler import standard_splitting
from orthlat.errors import WrongNormError
from orthlat.isometry import GroupWord, ReflectionAtom as sigma, TransvectionAtom as t
from orthlat.lattice import build


def counting(fails_on=None, error=None):
    """A relation that records its calls and fails on call fails_on, by
    raising error if one is given (as a certificate builder does)."""
    calls = []

    def relation():
        calls.append(None)
        if error is not None and len(calls) == fails_on:
            raise error
        return len(calls) != fails_on

    return relation, calls


class TestHolds:
    @pytest.mark.parametrize("k", [1, 2, 7, 10])
    def test_stops_at_first_failure(self, k):
        relation, calls = counting(fails_on=k)
        report = suite._holds("r", 10, relation, note="n")
        assert len(calls) == k
        assert report == {"name": "r", "trials": 10, "pass": False, "note": "n"}

    @pytest.mark.parametrize("k", [1, 7])
    def test_wrong_norm_error_is_a_failure(self, k):
        relation, calls = counting(fails_on=k, error=WrongNormError("word misses its target"))
        report = suite._holds("r", 10, relation, note="n")
        assert len(calls) == k
        assert report == {"name": "r", "trials": 10, "pass": False, "note": "n"}

    @pytest.mark.parametrize("trials", [0, 1, 20, 50])
    def test_holding_relation_runs_every_trial(self, trials):
        relation, calls = counting()
        report = suite._holds("r", trials, relation)
        assert len(calls) == trials
        assert report == {"name": "r", "trials": trials, "pass": True, "note": ""}


class TestIdentityBlock:
    def test_failure_leaves_the_stream_for_the_next_relation(self, monkeypatch):
        draws = {"fails": [], "holds": []}

        def fails_on_second_trial(split, rng):
            draws["fails"].append(rng.random())
            return len(draws["fails"]) < 2

        def holds(split, rng):
            draws["holds"].append(rng.random())
            return True

        monkeypatch.setattr(suite, "TRANSVECTION_RELATIONS", (
            ("fails", fails_on_second_trial, "a"),
            ("holds", holds, ""),
        ))
        checks = suite.run_identity_block("2U+<-2>", Random(5), 4)
        assert checks == [
            {"name": "fails", "trials": 4, "pass": False, "note": "a", "lattice": "2U+<-2>"},
            {"name": "holds", "trials": 4, "pass": True, "note": "", "lattice": "2U+<-2>"},
        ]
        rng = Random(5)
        stream = [rng.random() for _ in range(6)]
        assert draws == {"fails": stream[:2], "holds": stream[2:]}


class TestSame:
    """_same compares the products of two atom tuples, not the tuples."""

    @pytest.fixture(scope="class")
    def split(self):
        return standard_splitting(build("2U+A2"))

    def test_equal_products_of_different_words(self, split):
        lat, e = split.lattice, split.e
        a, b = split.e1, split.e1 + 2 * split.f1
        lhs, rhs = (t(e, a), t(e, b)), (t(e, a + b),)
        assert lhs != rhs
        assert suite._same(lat, lhs, rhs)

    def test_different_products(self, split):
        e, a = split.e, split.e1
        assert not suite._same(split.lattice, (t(e, a),), (t(e, 2 * a),))

    def test_unconjugated_right_side(self, split):
        # w moves e, so w t(e, a) == t(w e, w a) w, but not t(e, a) w
        lat, e, a = split.lattice, split.e, split.e1
        w = (sigma(split.e - split.f), t(split.f, split.f1))
        we, wa = GroupWord(lat, w).apply(e), GroupWord(lat, w).apply(a)
        assert we != e
        assert suite._same(lat, w + (t(e, a),), (t(we, wa),) + w)
        assert not suite._same(lat, w + (t(e, a),), (t(e, a),) + w)


class TestReflectionPair:
    def test_isotropic_draw_is_drawn_again(self, monkeypatch):
        """An isotropic a is no mirror: the trial draws a again and checks
        the relation at the second draw."""
        split = standard_splitting(build("2U+A2"))
        lat, e, f = split.lattice, split.e, split.f
        iso, a = split.e1, split.e1 + split.f1
        assert lat.norm(iso) == 0 and lat.norm(a) == 2
        draws = iter([iso, a])
        monkeypatch.setattr(sampling, "l1_vector", lambda split, rng: next(draws))
        checked, real_same = [], suite._same

        def same(lat, lhs, rhs):
            checked.append((lhs, rhs))
            return real_same(lat, lhs, rhs)

        monkeypatch.setattr(suite, "_same", same)
        assert suite._reflection_pair(split, Random(5))
        assert list(draws) == []
        assert checked == [((t(f, a), t(e, a), t(f, a)), (sigma(a), sigma(e + f)))]


@pytest.fixture
def wrong_transvection_target(monkeypatch):
    """certificate_transvection with its honest word checked against
    P(4) t(e, u): _certified rejects every such certificate."""
    honest = commutators.certificate_transvection

    def builder(split, u):
        c = honest(split, u)
        return commutators._certified(commutators.p_map(split, 4) * c.target,
                                      c.pairs, c.tail, "wrong target")

    monkeypatch.setattr(commutators, "certificate_transvection", builder)


class TestCommutatorBlock:
    """The builders' own check is the suite's check of a certificate: a
    certificate that fails it fails its check, and the run goes on."""

    def test_failed_certificate_is_a_failed_check(self, wrong_transvection_target):
        report = suite.run_suite(1)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["transvection commutator certificates"]
        assert report["allPass"] is False

    def test_later_checks_take_the_same_draws(self, monkeypatch, wrong_transvection_target):
        states, plane = [], suite._plane_commutators

        def recorded(split, rng):
            states.append(rng.getstate())
            return plane(split, rng)

        monkeypatch.setattr(suite, "_plane_commutators", recorded)
        checks = suite.run_commutator_block(Random(5))
        assert [(c["name"], c["pass"]) for c in checks[-2:]] == [
            ("transvection commutator certificates", False),
            ("plane commutator identities", True)]
        # the failing relation stopped after its first draw of u
        rng = Random(5)
        split = standard_splitting(build("2U+A2"))
        suite._holds("", 50, partial(suite._master_scaling, split, rng))
        sampling.l1_vector(split, rng)
        assert len(states) == 20 and states[0] == rng.getstate()


class TestOneEvaluationPerCertificate:
    def test_suite_evaluates_each_certificate_once(self, evaluations):
        assert suite.run_suite(1)["allPass"] is True
        # 61 certificates: P(4), 20 transvections and 20 pairs of plane ones
        assert evaluations == {"verify": 61, "evaluate": 1566}
