import pytest

from orthlat.commutators import CommutatorCertificate
from orthlat.isometry import GroupWord
from orthlat.lattice import Lattice
from orthlat.linalg import Mat


def _skewed(lat: Lattice, x: str, y: str) -> Lattice:
    """lat in the basis with basis vector x added to e and y to e1 (labels
    of a built lattice): its planes are no longer spanned by basis vectors."""
    p = [[int(i == j) for j in range(lat.rank)] for i in range(lat.rank)]
    p[lat.labels.index(x)][lat.labels.index("e")] = 1
    p[lat.labels.index(y)][lat.labels.index("e1")] = 1
    p = Mat(p)
    return Lattice(p.transpose() @ lat.gram @ p, lat.labels)


@pytest.fixture
def skewed():
    return _skewed


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of the calls of CommutatorCertificate.verify and of
    GroupWord.evaluate made while the test runs."""
    calls = {"verify": 0, "evaluate": 0}

    def counted(cls, name):
        real = getattr(cls, name)

        def method(self):
            calls[name] += 1
            return real(self)

        monkeypatch.setattr(cls, name, method)

    counted(CommutatorCertificate, "verify")
    counted(GroupWord, "evaluate")
    return calls
