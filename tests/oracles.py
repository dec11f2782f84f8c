"""Reference implementations that the tests compare the package against.

The scalar softmax-margin costs spell out, case by case, what
``model.delta_matrix`` / ``model.gamma_matrix`` compute for a whole
document; the brute-force membership enumerates every antecedent vector
and is the oracle of acceptance 3; the line-by-line CoNLL reader is the
reference that ``corpus.parse_conll_documents`` is compared against.
None of them is part of the method.
"""

import numpy as np

from softcoref import (Clustering, ConllDocument, CostConfig, FormatError, InputError,
                       LinkDistribution, MembershipMatrix)
from softcoref.corpus import _utf8_text

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
