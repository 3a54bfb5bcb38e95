"""The word U: rich in palindromes, poor in palindromic prefixes.

U is built from u0 = aa by u_{k+1} = u_k bbab u_k reverse(u_k).  Every block
u_k reverse(u_k) is a palindrome, so U contains arbitrarily long palindromic
factors, and it is uniformly recurrent.  Yet no suffix of U begins with more
than a handful of palindromes: an occurrence-counting invariant (bbab never
trails babb) forces long prefixes of every suffix to be asymmetric.
"""

from palfact import (
    PalindromeIndex,
    Word,
    count_occurrences,
    palindromic_prefixes,
    verify_u_suffixes,
    word_u_component,
    word_u_stream,
)

U = word_u_stream()
print("U =", U.prefix(40), "...\n")

for n in range(4):
    un = word_u_component(n)
    print(f"u_{n}: length {len(un)} (= 4*3^{n} - 2: {len(un) == 4 * 3**n - 2})")
print()

seq = palindromic_prefixes(U, 10_000)
print("palindromic prefixes of U within 10000 symbols:", list(seq.lengths))
print()

print("the occurrence-counting mechanism on a prefix of U:")
w = U.prefix(2000)
for n in (200, 500, 1000, 2000):
    p = w[:n]
    d = count_occurrences(p, Word("bbab")) - count_occurrences(p, Word("babb"))
    print(f"  prefix {n}: #bbab - #babb = {d}")
print("a palindrome contains bbab and babb equally often (they are mirror")
print("images), so once the difference stays positive no longer palindromic")
print("prefix can appear.\n")

result = verify_u_suffixes((0, 2, 10), 10_000)
for claim in result.claims:
    print(f"[{claim.status}] {claim.description}: {claim.observed}")

print()
print("despite all that, U has plenty of palindromic factors:")
idx = PalindromeIndex(U.prefix(3000))
print("  distinct palindromic factors in the first 3000 symbols:",
      idx.node_count())
