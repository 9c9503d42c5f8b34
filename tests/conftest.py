import numpy as np
import pytest

from numlm import heads
from numlm.corpus import build_vocabulary, tokenize, tokenize_corpus
from numlm.gmm import GaussianMixtureBank

TINY_LINES = [
    "the value is 60.5 today",
    "the value is 58 now",
    "a reading of 7 was low",
    "the value is 60.5 again",
]


@pytest.fixture
def tiny_corpus():
    return tokenize_corpus(TINY_LINES)


@pytest.fixture
def tiny_vocab(tiny_corpus):
    return build_vocabulary(tiny_corpus, cap=100)


@pytest.fixture
def tiny_bank():
    means = np.array([7.0, 58.0, 60.5, 40.0])
    variances = np.array([4.0, 9.0, 1.0, 400.0])
    return GaussianMixtureBank(means, variances, np.array([2, 2, 4, 4]))


@pytest.fixture
def prepare_calls(monkeypatch):
    """Every `ClosedSoftmax.prepare` call made during the test."""
    calls = []
    prepare = heads.ClosedSoftmax.prepare

    def counted(self):
        calls.append(self)
        prepare(self)

    monkeypatch.setattr(heads.ClosedSoftmax, "prepare", counted)
    return calls


def numeral_token(surface):
    toks = tokenize(surface)
    assert len(toks) == 1 and toks[0].is_numeral
    return toks[0]
