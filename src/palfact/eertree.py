"""Palindromic tree (eertree) over integer-symbol sequences.

One node per distinct nonempty palindromic factor, plus two roots: node 0
(imaginary, length -1) and node 1 (empty, length 0).  Each node carries a
suffix link (its longest proper palindromic suffix) and a series link that
jumps past the maximal run of suffix-link ancestors sharing the same
``length - link_length`` difference.  Palindromic suffixes of any prefix
therefore split into O(log n) arithmetic progressions, which is what makes
the minimum-factorization recurrence, the left-greedy counts and the capped
suffix query cheap: the first two share one walk over the groups, with one
memo per node for each, so a symbol costs O(log n).

Node fields live in parallel lists indexed by node id.  Transitions are kept
per symbol, not per node: ``trans[c]`` maps a node v to the node of ``cvc``.
Every node but the roots is the target of exactly one edge, so the tables
hold one entry per node, where one dict per node cost at least an empty dict
(64 B; 224 B once it holds an edge) for each.  A rich word adds a node at
almost every position, so this halves an index's memory.  Keys are the
symbols themselves, so symbols stay unbounded non-negative ints.

Instead of each node's difference ``len(v) - len(link(v))`` the index keeps
``short[v]``, the length of the shortest member of v's series group, which
is all the walks read: when v is a palindromic suffix of the prefix of
length n, so is every member of its group, and the shortest one starts at
``n - short[v]``.  A node alone in its group stores its own length object,
any other the one of its suffix link, so the column makes no int objects of
its own.  ``word[0]`` is a sentinel (``None``, equal to no symbol) and
symbol k sits at ``word[k + 1]``, so the insertion walks need no bounds
test.  ``lps`` is not kept by the build: it is read off the node of each
position when asked for.

The structure is single-writer: ``append``/``extend`` grow it, concurrent
reads of already-indexed positions are safe between writes.

``SharedEertree`` is the backtracking searches' tree: the same length, link
and transition columns (no series links) and the same sentinel word, for one
branch that ``push`` grows a symbol at a time and ``truncate`` cuts back.
Nodes outlive the branch that made them, so every branch shares them.  It
inserts by direct links instead of the walks, since their amortized bound
does not survive cuts.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class PalindromeIndex:
    """Eertree plus per-position arrays for one growing word.

    ``lps[i]`` is the length of the longest palindromic suffix of the prefix
    of length ``i + 1`` (so ``lps`` is 0-indexed by position while reports
    use 1-based prefix lengths).  With ``track_min=True`` the index also
    maintains ``min_factors``, where ``min_factors[i]`` is the minimum number
    of nonempty palindromes concatenating to the length-``i`` prefix.
    ``track_left=True`` (implies ``track_min``) also tracks
    ``left_greedy_counts()`` in the same walk, for a memo per node, a byte
    per position and the current prefix's factor starts.

    Per-node data are parallel lists (length, suffix link, shortest length
    in the series group, series link); ``_trans[c][v]`` is the child of
    node v by symbol c.
    """

    __slots__ = (
        "_word",
        "_len",
        "_link",
        "_short",
        "_qlink",
        "_trans",
        "_node_at",
        "_lps",
        "_last",
        "_min_dp",
        "_series_ans",
        "_left_ans",
        "_cuts",
        "_is_cut",
        "_left_counts",
    )

    def __init__(self, symbols: Sequence[int] = (), track_min: bool = False,
                 track_left: bool = False):
        self._word: list[int | None] = [None]  # sentinel; symbol k at k + 1
        self._len = [-1, 0]
        self._link = [0, 0]
        self._short = [0, 0]
        self._qlink = [0, 0]
        self._trans: dict[int, dict[int, int]] = {}
        self._node_at: list[int] = []
        self._lps: list[int] = []
        self._last = 1
        track_min = track_min or track_left  # the two share one walk
        self._min_dp = [0] if track_min else None
        self._series_ans = [0, 0] if track_min else None
        self._left_ans = [0, 0] if track_left else None
        self._cuts: list[int] | None = [] if track_left else None
        self._is_cut = bytearray() if track_left else None
        self._left_counts: list[int] | None = [] if track_left else None
        if symbols:
            self.extend(symbols)

    def __len__(self) -> int:
        return len(self._node_at)

    @property
    def word(self) -> list[int]:
        """A copy of the indexed symbols."""
        return self._word[1:]

    @property
    def lps(self) -> list[int]:
        """Longest palindromic suffix length per position. Read-only.

        Built when read, from the node of each position; a list returned
        earlier is the same object, brought up to date by this read.  The
        update is a slice assignment, so readers racing between writes
        store the same values instead of appending them twice.
        """
        lps = self._lps
        node_at = self._node_at
        k = len(lps)
        if k < len(node_at):
            lps[k:] = map(self._len.__getitem__, node_at[k:] if k else node_at)
        return lps

    @property
    def min_factors(self) -> list[int]:
        """Minimum palindromic factor count per prefix length (index 0 is 0)."""
        if self._min_dp is None:
            raise ValueError("index was built without track_min=True")
        return self._min_dp

    def left_greedy_counts(self) -> list[int]:
        """Left-greedy palindromic factor count of every prefix, in order.

        Symbol n - 1 changes the left-greedy factorization only where the
        whole remainder becomes a palindrome, so the factor starts ("cuts")
        are kept up to the leftmost cut s with w[s..n-1] a palindrome, or
        else the new symbol opens a factor of its own.  ``extend`` finds s
        in the minimum-factor walk over the series groups of the new
        prefix's palindromic suffixes, longest first, and keeps per group
        head vv the leftmost cut among its group's starts (-1: none).  The
        group's shortest member starts at x = n - len(qlink[vv]) - d, with
        d = diff[vv].  When vv's suffix link lv lies in the group, its
        starts are those of lv's group at prefix length n - d plus x.  Cuts
        only lose a suffix or gain the new last position, and a dropped one
        never returns, so lv's memo is still the answer while it is a cut;
        otherwise only a start at or after n - d - 1 can have become one
        since: x, or, in a run of one letter (x = n - 1, no cut yet),
        x - d = n - 2.  Treat the list as read-only.
        """
        if self._left_counts is None:
            raise ValueError("index was built without track_left=True")
        return self._left_counts

    def node_count(self) -> int:
        """Number of distinct nonempty palindromic factors indexed so far."""
        return len(self._len) - 2

    def palindrome_lengths(self) -> list[int]:
        """Lengths of all distinct nonempty palindromic factors."""
        return self._len[2:]

    def append(self, c: int) -> None:
        self.extend((c,))

    def extend(self, symbols: Iterable[int]) -> None:
        # Hot loop: locals for every array, no helper calls per symbol.
        word = self._word
        lens = self._len
        link = self._link
        short = self._short
        qlink = self._qlink
        trans = self._trans
        node_at = self._node_at
        last = self._last
        dp = self._min_dp
        track = dp is not None
        sans = self._series_ans
        counts = self._left_counts
        left = counts is not None
        lans = self._left_ans
        cuts = self._cuts
        is_cut = self._is_cut
        n = len(word) - 1
        for c in symbols:
            # c sits at word[n + 1]; a suffix palindrome of length l can grow
            # by c when word[n - l] is c (the imaginary root always can, the
            # sentinel never)
            word.append(c)
            v = last
            while word[n - lens[v]] != c:
                v = link[v]
            tc = trans.get(c)
            if tc is None:
                tc = trans[c] = {}
            nxt = tc.get(v)
            if nxt is None:
                nxt = len(lens)
                newlen = lens[v] + 2
                if v == 0:  # a single letter: a group of its own
                    lk = 1
                    q = 1
                    sh = newlen
                else:
                    u = link[v]
                    while word[n - lens[u]] != c:
                        u = link[u]
                    lk = tc[u]
                    ll = lens[lk]
                    if newlen - ll != ll - lens[link[lk]]:
                        q = lk
                        sh = newlen
                    else:
                        q = qlink[lk]
                        sh = short[lk]
                lens.append(newlen)
                link.append(lk)
                short.append(sh)
                qlink.append(q)
                tc[v] = nxt
                if track:
                    sans.append(0)
                    if left:
                        lans.append(0)
            last = nxt
            n += 1
            node_at.append(nxt)
            if left:
                # The next branch's walk plus the memo of left_greedy_counts
                # (see there).  is_cut[-1] is position n - 1's slot: 0.
                is_cut.append(0)
                nm2 = n - 2
                best = n
                hit = -1
                vv = nxt
                while vv > 1:
                    q = qlink[vv]
                    x = n - short[vv]
                    cand = dp[x]
                    lv = link[vv]
                    if q != lv:
                        alt = sans[lv]
                        if alt < cand:
                            cand = alt
                        s = lans[lv]
                        if not is_cut[s]:
                            s = x if x <= nm2 else nm2
                            if not is_cut[s]:
                                s = -1
                    elif is_cut[x]:
                        s = x
                    else:
                        s = -1
                    sans[vv] = cand
                    lans[vv] = s
                    if cand < best:
                        best = cand
                    if hit < 0:
                        hit = s
                    vv = q
                dp.append(best + 1)
                if hit < 0:
                    cuts.append(n - 1)
                    is_cut[-1] = 1
                else:
                    while cuts[-1] != hit:
                        is_cut[cuts.pop()] = 0
                counts.append(len(cuts))
            elif track:
                # One step per series group.  q differs from vv's suffix
                # link exactly when that link lies in vv's group; then the
                # link's stored answer covers the rest of the group.
                best = n
                vv = nxt
                while vv > 1:
                    q = qlink[vv]
                    cand = dp[n - short[vv]]
                    lv = link[vv]
                    if q != lv:
                        alt = sans[lv]
                        if alt < cand:
                            cand = alt
                    sans[vv] = cand
                    if cand < best:
                        best = cand
                    vv = q
                dp.append(best + 1)
        self._last = last

    def suffix_palindrome_lengths(self, prefix_len: int) -> Iterator[int]:
        """All palindromic suffix lengths of the given prefix, decreasing."""
        if prefix_len <= 0:
            return
        lens = self._len
        link = self._link
        v = self._node_at[prefix_len - 1]
        while lens[v] > 0:
            yield lens[v]
            v = link[v]

    def longest_suffix_leq(self, prefix_len: int, cap: int) -> int:
        """Longest palindromic suffix of the prefix with length <= cap.

        Walks series links, so the cost is the number of distinct
        progressions rather than the number of palindromic suffixes.
        """
        if prefix_len <= 0 or cap <= 0:
            return 0
        lens = self._len
        link = self._link
        short = self._short
        qlink = self._qlink
        v = self._node_at[prefix_len - 1]
        while True:
            plen = lens[v]
            if plen <= cap:
                return plen if plen > 0 else 0
            if short[v] > cap:
                v = qlink[v]
            else:
                d = plen - lens[link[v]]
                k = (plen - cap + d - 1) // d
                return plen - k * d


class SharedEertree:
    """Eertree of one backtracking branch, with nodes shared across branches.

    A node is identified by its palindrome's symbol content, so lengths,
    suffix links, direct links and transitions computed while exploring one
    branch remain valid on every other branch.  The tree also owns
    the branch, in three lists indexed by prefix length and kept equally
    long: ``word`` (``word[0]`` is the ``None`` sentinel of
    ``PalindromeIndex``, symbol k sits at ``word[k + 1]``), ``nodes`` (the
    longest-palindromic-suffix node per prefix length, ``nodes[0]`` the
    empty root) and ``dp`` (the minimum palindromic factor count per prefix
    length).  ``push`` grows all three by one symbol and ``truncate`` cuts
    them back to a shorter branch; the nodes a cut branch created stay for
    reuse.  The prefix of length ``n`` is a palindrome exactly when
    ``lens[nodes[n]] == n``.  Transitions use the same layout as
    ``PalindromeIndex``: ``trans[c][v]`` is the child of node v by c.

    ``direct[v]`` maps a symbol c to the longest proper palindromic suffix
    of v that c precedes inside v; a symbol it does not list maps to the
    imaginary root (Rubinchik and Shur, EERTREE, European J. Combin. 68,
    2018).  So an append finds the node to extend and a new node's suffix
    link with one lookup each, with no walk whose amortized bound breaks
    when pushes and cuts alternate.  A table holds at most one entry per
    symbol of the alphabet.
    """

    __slots__ = ("lens", "link", "direct", "trans", "word", "nodes", "dp")

    def __init__(self):
        self.lens = [-1, 0]
        self.link = [0, 0]
        self.direct: list[dict[int, int]] = [{}, {}]
        self.trans: dict[int, dict[int, int]] = {}
        self.word: list[int | None] = [None]
        self.nodes = [1]
        self.dp = [0]

    def advance(self, c: int) -> int:
        """Append ``c`` to ``word`` and the node of the new longest
        palindromic suffix to ``nodes``; return that node.  ``dp`` is left
        to the caller (see ``push``).

        The node to extend is the current longest palindromic suffix when
        c precedes it, else its direct link by c.  A new node c v c links
        to c u c, u the direct link of v by c, and its table is its link's
        with one entry set: the symbol that precedes the link in c v c.
        """
        word = self.word
        lens = self.lens
        direct = self.direct
        n = len(word) - 1
        word.append(c)
        v = self.nodes[-1]
        if word[n - lens[v]] != c:
            v = direct[v].get(c, 0)
        tc = self.trans.get(c)
        if tc is None:
            tc = self.trans[c] = {}
        nxt = tc.get(v)
        if nxt is None:
            # c u c is a suffix of the palindrome c v c, so also a prefix:
            # it ended earlier on this branch and has a node
            lk = tc[direct[v].get(c, 0)] if v else 1
            nxt = len(lens)
            lens.append(lens[v] + 2)
            self.link.append(lk)
            table = direct[lk].copy()
            table[word[n + 1 - lens[lk]]] = lk
            direct.append(table)
            tc[v] = nxt
        self.nodes.append(nxt)
        return nxt

    def push(self, c: int) -> int:
        """Append ``c`` to the branch; return the new prefix's minimum
        palindromic factor count, one plus the least ``dp[n - s]`` over its
        palindromic suffix lengths ``s``.

        The walk over those suffixes, longest first, stops at the first
        value at most ``max(dp[n - 1] - 2, 1)``, which no later one can
        beat.  The counts of consecutive prefixes differ by at most one:
        dropping the last letter of a factorization's last palindrome a Q a
        leaves a . Q, one factor more, so dp[n - 1] <= dp[n] + 1 and the
        least value is at least dp[n - 1] - 2.  And only the whole prefix
        reads dp[0] = 0, while it comes first in the walk, so every later
        value is at least 1.
        """
        v = self.advance(c)
        lens = self.lens
        link = self.link
        dp = self.dp
        n = len(dp)
        floor = dp[-1] - 2
        if floor < 1:
            floor = 1
        best = n
        while lens[v] > 0:
            x = dp[n - lens[v]]
            if x < best:
                best = x
                if x <= floor:
                    break
            v = link[v]
        best += 1
        dp.append(best)
        return best

    def truncate(self, length: int) -> None:
        """Cut the branch back to its prefix of ``length`` symbols."""
        del self.word[length + 1 :]
        del self.nodes[length + 1 :]
        del self.dp[length + 1 :]
