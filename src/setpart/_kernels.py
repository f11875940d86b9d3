"""Word-level enumeration kernels.

The hot loops behind every partition and non-crossing sweep:
restricted-growth-string iteration and the pattern-avoiding word counts.
``NAME`` labels the implementation in benchmark records.
"""

NAME = "pure"


def iter_rgs(n):
    """Yield every restricted growth string of length n, lexicographically.

    Words are tuples of 1-based letters: the first letter is 1 and each
    letter exceeds the running maximum by at most one.
    """
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if n == 0:
        yield ()
        return
    w = [1] * n
    m = [1] * n  # m[i] = max(w[0..i])
    while True:
        yield tuple(w)
        i = n - 1
        while i > 0 and w[i] > m[i - 1]:
            i -= 1
        if i == 0:
            return
        w[i] += 1
        if w[i] > m[i]:
            m[i] = w[i]
        for k in range(i + 1, n):
            w[k] = 1
            m[k] = m[k - 1]


def count_rgs(n):
    """Count restricted growth strings of length n by walking all of them."""
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if n == 0:
        return 1
    w = [1] * n
    m = [1] * n
    count = 0
    while True:
        count += 1
        i = n - 1
        while i > 0 and w[i] > m[i - 1]:
            i -= 1
        if i == 0:
            return count
        w[i] += 1
        if w[i] > m[i]:
            m[i] = w[i]
        for k in range(i + 1, n):
            w[k] = 1
            m[k] = m[k - 1]


def _walk_noncrossing(n, adj_prefix, cyclic, collect):
    """Backtracking core shared by the non-crossing enumerators.

    Generates restricted growth strings avoiding the value pattern 1212,
    optionally rejecting words where a letter equals its successor among
    the first ``adj_prefix`` positions, and (with ``cyclic``) words whose
    last letter equals the first.  Yields tuples when ``collect`` is true,
    otherwise counts leaves.
    """
    if n == 0:
        if collect:
            yield ()
        else:
            yield 1
        return
    w = [0] * n
    first = [0] * (n + 2)  # value -> 1 + first position, 0 if unseen
    last = [0] * (n + 2)
    bad = [False] * (n + 2)  # bad[v]: some a < v occurs before and after a v

    def extend(i, mx):
        if i == n:
            if cyclic and w[n - 1] == w[0]:
                return
            if collect:
                yield tuple(w)
            else:
                yield 1
            return
        for c in range(1, mx + 2):
            if bad[c]:
                continue
            if 1 <= i <= adj_prefix and w[i - 1] == c:
                continue
            w[i] = c
            seen_before = first[c] != 0
            saved_last = last[c]
            last[c] = i + 1
            newly_bad = []
            if seen_before:
                for b in range(c + 1, mx + 1):
                    if not bad[b] and last[b] > first[c]:
                        bad[b] = True
                        newly_bad.append(b)
            else:
                first[c] = i + 1
            yield from extend(i + 1, mx if c <= mx else c)
            for b in newly_bad:
                bad[b] = False
            last[c] = saved_last
            if not seen_before:
                first[c] = 0

    yield from extend(0, 0)


def iter_noncrossing(n):
    """Yield all 1212-avoiding restricted growth strings of length n."""
    if n < 0:
        raise ValueError("word length must be nonnegative")
    return _walk_noncrossing(n, 0, False, True)


def count_noncrossing(n):
    if n < 0:
        raise ValueError("word length must be nonnegative")
    return sum(_walk_noncrossing(n, 0, False, False))


def count_noncrossing_cyclic_smirnov(n):
    """Count 1212-avoiding words with no equal cyclically-adjacent letters.

    A length-1 word is its own cyclic neighbour, so the count at n=1 is 0.
    """
    if n < 0:
        raise ValueError("word length must be nonnegative")
    return sum(_walk_noncrossing(n, max(n - 1, 0), n >= 1, False))


def count_noncrossing_prefix_smirnov(n, j):
    """Count 1212-avoiding words with w[i] != w[i+1] for the first j positions."""
    if n < 0:
        raise ValueError("word length must be nonnegative")
    return sum(_walk_noncrossing(n, j, False, False))
