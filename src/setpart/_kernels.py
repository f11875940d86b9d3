"""Word-level enumeration kernels.

The hot loops behind every partition and non-crossing sweep:
restricted-growth-string iteration and the pattern-avoiding word counts.
iter_rgs follows Knuth's Algorithm H (TAOCP 4A, 7.2.1.5): the last
letter runs in an inner loop, and only a change of prefix takes the
odometer's general step.

A growth word avoids the pattern 1212 exactly when it follows the
open-block rule: each letter either opens a new block (one more than the
largest letter so far) or reuses a letter whose block is still open, and
reusing a letter closes every block opened after it.  The open letters
form a stack, oldest first, whose top is the last letter written
(Simion, "Noncrossing partitions", Discrete Math. 217, 2000).

No public function here calls another public one, so a wrapper around
each name sees every word once.  ``NAME`` labels the implementation in
benchmark records.
"""

from .errors import _index

NAME = "pure"


def iter_rgs(n):
    """Yield every restricted growth string of length n, lexicographically.

    Words are tuples of 1-based letters: the first letter is 1 and each
    letter exceeds the running maximum by at most one.  The last letter
    runs through 1..max(prefix) + 1; between runs an odometer raises the
    last prefix letter that may grow and resets every letter after it to 1.
    """
    _index(n, "word length")
    if n == 0:
        yield ()
        return
    p = n - 1
    w = [1] * p
    m = [1] * p  # m[i] = max(w[0..i])
    while True:
        head = tuple(w)
        for c in range(1, (m[-1] if p else 0) + 2):
            yield head + (c,)
        i = p - 1
        while i > 0 and w[i] > m[i - 1]:
            i -= 1
        if i <= 0:
            return
        w[i] += 1
        if w[i] > m[i]:
            m[i] = w[i]
        for k in range(i + 1, p):
            w[k] = 1
            m[k] = m[k - 1]


def _count_words(n, closing, adj_prefix, cyclic):
    """Count growth words of length n, walking their first n - 1 letters.

    ``stack`` holds the reusable letters and ``top`` the largest so far.
    ``closing`` applies the open-block rule, so only 1212-avoiding words
    count; without it every letter stays reusable.  Letter i, for
    1 <= i <= adj_prefix, may not repeat letter i - 1 (the stack top under
    ``closing``), and with ``cyclic`` the last letter may not be 1.
    """
    _index(n, "word length")
    if n == 0:
        return 1

    def walk(i, stack, top):
        banned = stack[-1] if 1 <= i <= adj_prefix else None
        if i == n - 1:
            letters = stack + (top + 1,)
            return sum(c != banned and not (cyclic and c == 1) for c in letters)
        total = 0
        for k, c in enumerate(stack):
            if c != banned:
                total += walk(i + 1, stack[: k + 1] if closing else stack, top)
        return total + walk(i + 1, stack + (top + 1,), top + 1)

    total = walk(0, (), 0)
    del walk  # walk reaches itself through its closure: no cycle is left
    return total


def iter_noncrossing(n):
    """Yield the 1212-avoiding growth strings of length n, lazily, in lex order."""
    _index(n, "word length")
    return _extend(n, (), (), 0)


def _extend(n, word, stack, top):
    """The 1212-avoiding words of length n that extend word, whose open
    letters are stack and whose largest letter is top."""
    if len(word) == n:
        yield word
        return
    for k, c in enumerate(stack):
        yield from _extend(n, word + (c,), stack[: k + 1], top)
    yield from _extend(n, word + (top + 1,), stack + (top + 1,), top + 1)


def count_rgs(n):
    """Count restricted growth strings of length n by walking all of them."""
    return _count_words(n, False, 0, False)


def count_noncrossing(n):
    """Count 1212-avoiding restricted growth strings of length n."""
    return _count_words(n, True, 0, False)


def count_noncrossing_cyclic_smirnov(n):
    """Count 1212-avoiding words with no equal cyclically-adjacent letters.

    A length-1 word is its own cyclic neighbour, so the count at n=1 is 0.
    """
    return _count_words(n, True, max(n - 1, 0), n >= 1)


def count_noncrossing_prefix_smirnov(n, j):
    """Count 1212-avoiding words with w[i] != w[i+1] for the first j positions."""
    return _count_words(n, True, j, False)
