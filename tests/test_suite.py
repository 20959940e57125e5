"""The identity suite's trial runner: a relation is tried until its
first failure and no further.  That fixes how many draws each check
takes from the shared random stream, and so what every later check
sees."""

from random import Random

import pytest

from orthlat import sampling, suite
from orthlat.eichler import standard_splitting
from orthlat.isometry import GroupWord, ReflectionAtom as sigma, TransvectionAtom as t
from orthlat.lattice import build


def counting(fails_on=None):
    """A relation that records its calls and fails on call fails_on."""
    calls = []

    def relation():
        calls.append(None)
        return len(calls) != fails_on

    return relation, calls


class TestHolds:
    @pytest.mark.parametrize("k", [1, 2, 7, 10])
    def test_stops_at_first_failure(self, k):
        relation, calls = counting(fails_on=k)
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
