"""Reference implementations that the tests compare the package against.

The scalar softmax-margin costs spell out, case by case, what
``model.delta_matrix`` / ``model.gamma_matrix`` compute for a whole
document; the brute-force membership enumerates every antecedent vector
and is the oracle of acceptance 3.  None of them is part of the method.
"""

import numpy as np

from softcoref import CostConfig, InputError, LinkDistribution, MembershipMatrix

# Softmax-margin costs that are zero in every case: the heuristic losses
# reduce to plain log-likelihoods.
ZERO_COSTS = CostConfig((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def delta_cost(j: int, i: int, candidates: frozenset[int],
               costs: CostConfig = CostConfig()) -> float:
    """Cost of linking mention i to j given the correct set C(m_i).

    Cases, checked in order: false anaphor (linking a discourse-new
    mention), false new (self-linking an anaphoric one), wrong link.
    """
    a1, a2, a3 = costs.alphas
    if j != i and i in candidates:
        return a1
    if j == i and i not in candidates:
        return a2
    if j != i and j not in candidates:
        return a3
    return 0.0


def gamma_cost(u: int, i: int, gold_entity: int,
               costs: CostConfig = CostConfig()) -> float:
    """Entity-anchor analog of delta_cost with e(m_i) as the target."""
    g1, g2, g3 = costs.gammas
    if u != i and gold_entity == i:
        return g1
    if u == i and gold_entity != i:
        return g2
    if u != gold_entity and u != i and gold_entity != i:
        return g3
    return 0.0


def brute_force_membership(links: LinkDistribution) -> MembershipMatrix:
    """Membership by explicit enumeration of all antecedent vectors.

    Exponential in n; intended as an oracle for small documents.
    """
    n = links.n
    if n > 8:
        raise InputError("brute-force membership is limited to n <= 8")
    p = links.probs
    q = np.zeros((n, n))
    choices = [range(i + 1) for i in range(n)]  # 0-based antecedent j <= i

    def walk(i: int, prob: float, vector: list[int]):
        if i == n:
            # Follow antecedent links to each mention's entity anchor.
            for m in range(n):
                u = m
                while vector[u] != u:
                    u = vector[u]
                q[m, u] += prob
            return
        for j in choices[i]:
            walk(i + 1, prob * p[i, j], vector + [j])

    walk(0, 1.0, [])
    return MembershipMatrix(q)
