"""A fixed amount of pure-Python work that measures how fast the host is now.

    python3 bench/probe.py

It runs small copies of the three kinds of work the workloads do, without
importing gracelab: a value-table scan with a label bitmask, a conjugation
scan that builds a table per permutation, and a product of sparse
polynomials held in dicts of big integers.  run.py times it between jobs.
"""

import itertools


def table_scan() -> int:
    count = 0
    for table in itertools.product(range(6), repeat=6):
        seen = 0
        for i, v in enumerate(table):
            bit = 1 << abs(v - i)
            if seen & bit:
                break
            seen |= bit
        else:
            count += 1
    return count


def conjugation_scan() -> int:
    values = (0, 0, 1, 1, 2, 3, 4, 5)
    found = set()
    for s in itertools.permutations(range(8)):
        table = [0] * 8
        for j, v in enumerate(values):
            table[s[j]] = s[v]
        found.add(tuple(table))
    return len(found)


def poly_product() -> int:
    row = {9**d: d + 1 for d in range(9)}
    product = {0: 1}
    for _ in range(8):
        out = {}
        for e1, c1 in product.items():
            for e2, c2 in row.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        product = out
    return sum(product.values())


if (table_scan(), conjugation_scan(), poly_product()) != (392, 20160, 45**8):
    raise SystemExit("probe computed a wrong result")
