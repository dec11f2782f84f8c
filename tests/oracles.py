"""Reference implementations that the tests compare the package against.

The scalar softmax-margin costs spell out, case by case, what
``model.delta_matrix`` / ``model.gamma_matrix`` compute for a whole
document; the brute-force membership enumerates every antecedent vector
and is the oracle of acceptance 3; the line-by-line CoNLL reader is the
reference that ``corpus.parse_conll_documents`` is compared against; the
dense per-document scorers, one contingency matrix per (gold, response)
pair summed in document order, are the reference of ``metrics``' corpus-wide
table; the per-document near-tie gap, with its reach and fit test taken row
by row, is the reference of the closed form that ``model._near_tie_gaps``
evaluates for a whole call.  None of them is part of the method.
"""

import math
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from softcoref import (BlancCounts, Clustering, ConllDocument, CostConfig, FormatError,
                       InputError, LinkDistribution, MembershipMatrix, MetricCounts,
                       MetricReport, conll_average)
from softcoref.corpus import _utf8_text
from softcoref.model import _F32_TINY, _F32_UNIT, _F64_UNIT, _TANH_ULPS, _gamma

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


def _conll_document(doc_id: str, found: list, open_stacks: dict) -> ConllDocument:
    """Close one document: number its mentions in span order (start token,
    then end token) and group them by entity id.  Raises ValueError for an
    entity left open or a span tagged twice."""
    for entity, stack in open_stacks.items():
        if stack:
            raise ValueError(
                f"unbalanced brackets in document {doc_id!r}: entity {entity} left open")
    found.sort()
    spans = tuple((start, end) for start, end, _ in found)
    if len(set(spans)) != len(spans):
        raise ValueError(f"duplicate mention span in document {doc_id!r}")
    by_entity: dict[int, list[int]] = {}
    for number, (_, _, entity) in enumerate(found, start=1):
        by_entity.setdefault(entity, []).append(number)
    return ConllDocument(doc_id, spans, Clustering(by_entity.values()))


def reference_parse_conll_documents(path) -> list[ConllDocument]:
    """``parse_conll_documents`` as a plain loop over the lines of the file:
    the same documents, or the same FormatError (message and line), for
    every UTF-8 file.  Text-mode reading decodes 8 KiB at a time, so in a
    file with bytes that are not UTF-8 this loop may first meet a malformed
    line before them, where ``parse_conll_documents`` reports the bytes."""
    docs: list[ConllDocument] = []
    doc_id = None
    with _utf8_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line[:1] == "#":
                if line.startswith("#begin document"):
                    if doc_id is not None:
                        raise FormatError(f"document {doc_id!r} not terminated by #end document",
                                          path=path, line=lineno)
                    rest = line[len("#begin document"):].strip()
                    if rest.startswith("("):
                        close = rest.find(")")
                        doc_id = rest[1:close] if close != -1 else rest[1:]
                    else:
                        doc_id = rest
                    token_no = 0
                    open_stacks: dict[int, list[int]] = {}  # entity -> open start tokens
                    found: list[tuple[int, int, int]] = []  # (start, end, entity)
                    continue
                if line.startswith("#end document"):
                    if doc_id is None:
                        raise FormatError("#end document without #begin", path=path, line=lineno)
                    try:
                        docs.append(_conll_document(doc_id, found, open_stacks))
                    except ValueError as exc:
                        raise FormatError(str(exc), path=path, line=lineno) from exc
                    doc_id = None
                    continue
            if doc_id is None:
                continue
            fields = line.rsplit(None, 1)
            if not fields:
                continue
            token_no += 1
            field = fields[-1]
            if field in ("-", "_"):
                continue
            for part in field.split("|"):
                if not part:
                    continue
                opens = part[0] == "("
                closes = part[-1] == ")"
                body = part[opens:len(part) - closes]
                if not (opens or closes) or not (body.isascii() and body.isdigit()):
                    raise FormatError(f"document {doc_id!r}: unrecognized coreference tag {part!r}",
                                      path=path, line=lineno)
                digits = body.lstrip("0")
                if len(digits) > 19 or int(digits or "0") >= 2**63:
                    raise FormatError(f"document {doc_id!r}: entity id in coreference tag "
                                      f"{part!r} does not fit int64", path=path, line=lineno)
                entity = int(digits or "0")
                if opens and closes:  # a one-token mention needs no stack
                    found.append((token_no, token_no, entity))
                elif opens:
                    open_stacks.setdefault(entity, []).append(token_no)
                else:
                    stack = open_stacks.get(entity)
                    if not stack:
                        raise FormatError(
                            f"unbalanced brackets in document {doc_id!r}: "
                            f"closing entity {entity} that is not open",
                            path=path, line=lineno,
                        )
                    found.append((stack.pop(), token_no, entity))
    if doc_id is not None:
        raise FormatError(f"document {doc_id!r} not terminated by #end document", path=path)
    return docs


# ---------------------------------------------------------------------------
# Exact metrics, one dense contingency matrix per document
# ---------------------------------------------------------------------------

def _overlaps(gold: Clustering, response: Clustering) -> np.ndarray:
    """The int64 contingency matrix x[v, u] = |G_v & S_u|, clusters in
    ``cluster_index`` order on both sides."""
    rows, cols = gold.cluster_index(), response.cluster_index()
    # Both cover 1..n, so equal sizes mean equal mention sets.
    if len(rows) != len(cols):
        raise InputError(
            f"gold and response cover different mentions ({len(rows)} vs {len(cols)})"
        )
    shape = (len(gold), len(response))
    return np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1]).reshape(shape)


def _pairs(k):
    return k * (k - 1) // 2


def _muc(x: np.ndarray) -> MetricCounts:
    """Link-based counts: a cluster of size k contributes k - 1 links and
    loses one per part it is split into by the other side, so both sides
    resolve n - nnz(x) links."""
    n = int(x.sum())
    resolved = float(n - np.count_nonzero(x))
    return MetricCounts(resolved, float(n - x.shape[1]), resolved, float(n - x.shape[0]))


def _b_cubed(x: np.ndarray) -> MetricCounts:
    """Per-mention counts: each mention scores the squared overlap of its
    gold and response clusters over the cluster size on each side."""
    x2 = x * x
    n = float(x.sum())
    # Builtin sum over clusters in order fixes the rounding of the totals.
    r_num = float(sum((x2.sum(axis=1) / x.sum(axis=1)).tolist()))
    p_num = float(sum((x2.sum(axis=0) / x.sum(axis=0)).tolist()))
    return MetricCounts(p_num, n, r_num, n)


def _optimal_alignment_total(similarity: np.ndarray) -> float:
    """Best one-to-one cluster alignment score (rectangular allowed)."""
    rows, cols = linear_sum_assignment(-similarity)
    return float(similarity[rows, cols].sum())


def _ceaf_m(x: np.ndarray) -> MetricCounts:
    """Mention-overlap similarity phi(G, S) = |G & S|."""
    best = _optimal_alignment_total(x)
    n = float(x.sum())
    return MetricCounts(best, n, best, n)


def _ceaf_e(x: np.ndarray) -> MetricCounts:
    """Normalized similarity phi(G, S) = 2|G & S| / (|G| + |S|)."""
    phi = 2.0 * x / (x.sum(axis=1)[:, None] + x.sum(axis=0)[None, :])
    best = _optimal_alignment_total(phi)
    return MetricCounts(best, float(x.shape[1]), best, float(x.shape[0]))


def _blanc(x: np.ndarray) -> BlancCounts:
    """Coreferent pairs in both partitions are the pairs inside each
    overlap; the non-coreferent pairs follow by inclusion-exclusion."""
    total = _pairs(int(x.sum()))
    both = int(_pairs(x).sum())
    gold = int(_pairs(x.sum(axis=1)).sum())
    response = int(_pairs(x.sum(axis=0)).sum())
    neither = total - gold - response + both
    return BlancCounts(
        coref=MetricCounts(float(both), float(response), float(both), float(gold)),
        non_coref=MetricCounts(float(neither), float(total - response),
                               float(neither), float(total - gold)),
    )


def _lea(x: np.ndarray, singleton_self_links: bool = False) -> MetricCounts:
    """Each side reads its own clusters as the rows (x, then x.T): a
    cluster of size k > 1 resolves sum_u pairs(x[v, u]) of its pairs(k)
    links, so it adds k * resolved / pairs(k) = 2 * resolved / (k - 1)."""
    def side(x: np.ndarray) -> tuple[float, float]:
        sizes = x.sum(axis=1)
        multi = sizes > 1
        num = (2 * _pairs(x[multi]).sum(axis=1) / (sizes[multi] - 1)).sum()
        if singleton_self_links:
            num += np.count_nonzero(x[sizes == 1][:, x.sum(axis=0) == 1])
        return float(num), float(sizes.sum())

    r_num, r_den = side(x)
    p_num, p_den = side(x.T)
    return MetricCounts(p_num, p_den, r_num, r_den)


REFERENCE_COUNTS = {
    "muc": _muc, "b_cubed": _b_cubed, "ceaf_m": _ceaf_m,
    "ceaf_e": _ceaf_e, "blanc": _blanc, "lea": _lea,
}


def reference_corpus_report(pairs, beta: float = 1.0) -> MetricReport:
    """``corpus_report`` as each document scored on its own, the counts
    added in document order."""
    overlaps = [_overlaps(gold, response) for gold, response in pairs]
    prfs = {name: sum(fn(x) for x in overlaps).prf(beta)
            for name, fn in REFERENCE_COUNTS.items()}
    return MetricReport(
        conll=conll_average(prfs["muc"].f, prfs["b_cubed"].f, prfs["ceaf_e"].f),
        **prfs,
    )


def reference_near_tie_gap(doc, params) -> Optional[float]:
    """The float32 screen's near-tie gap of one document, as
    ``predict_antecedents`` states it, term by term: row k's reach
    max(phi, 1) ||w_p,k||_1 + |b_p,k| from a matrix-vector product, the
    float32 fit test on the largest row's reach, and E summed over the two
    unit roundoffs.  None where the float32 layer is not used."""
    if doc.n < 2:
        return None
    phi, d, hidden = doc.pair_feature_max, params.d_p, params.hidden_p
    abs_u = np.abs(params.u)
    abs_u_p = abs_u[params.hidden_a:]
    reach = np.abs(params.w_p) @ np.full(d, max(phi, 1.0)) + np.abs(params.b_p)
    u_l1 = float(abs_u_p.sum())
    if not max(phi, reach.max(initial=0.0), u_l1) < 2.0 ** 120:
        return None
    lin = float(abs_u_p @ reach)
    error = _F32_TINY * (lin + u_l1 * (d * (phi + 1.0) + 2.0) + 2.0 * hidden + 2.0)
    for unit in (_F32_UNIT, _F64_UNIT):
        error += _gamma(d + 3, unit) * lin + (_TANH_ULPS * unit + _gamma(hidden + 2, unit)) * u_l1
    gap = 2.0 * (error + 2.0 ** -48 * (float(abs_u.sum()) + abs(params.u_0))) + 2.0 ** -44
    return gap if math.isfinite(gap) else None
