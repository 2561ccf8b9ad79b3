"""Exact search's chunks as a source of index arrays for tests."""

import itertools
import math

from colsel import selectors


def index_chunks(n, k, size, extra=0):
    """Chunks 0, 1, ... of ``selectors._index_chunks(n, k, size, extra)``,
    every one that starts below C(n, k): the k-combinations of range(n) in
    lexicographic order, in chunks of ``size`` rows, one more in each of the
    first ``extra``."""
    chunk, total = selectors._index_chunks(n, k, size, extra), math.comb(n, k)
    for i in itertools.takewhile(lambda i: i * size + min(i, extra) < total, itertools.count()):
        yield chunk(i)


def recording_chunks(monkeypatch):
    """Every chunk ``exact_optima`` enumerates from now on, in any worker
    and in the order they are unranked."""
    chunks = []
    real = selectors._index_chunks

    def recording(*args):
        chunk = real(*args)

        def recorded(i):
            idx = chunk(i)
            chunks.append(idx)
            return idx

        return recorded

    monkeypatch.setattr(selectors, "_index_chunks", recording)
    return chunks
