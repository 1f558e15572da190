"""Test-side oracles, deliberately independent of the library formulas.

The block-rank isomorphism oracle is shared with the verify suite and
re-exported from there.
"""

from angulated.verify import block_iso_oracle  # noqa: F401


def path_hom_dim(params, x, y):
    """Dimension of Hom(x -> y) by walking arrows on the quiver.

    Builds the unique arrow path step by step and kills it as soon as it
    uses l consecutive arrows, instead of evaluating the distance rule.
    """
    count = 0
    stack = [(x, 0)]
    while stack:
        vertex, steps = stack.pop()
        if steps >= params.l:
            continue  # a composite of l consecutive arrows vanishes
        if vertex == y:
            count += 1
            continue
        if vertex < y:
            stack.append((vertex + 1, steps + 1))
    return count


def angle_objects(params, a):
    """Positions of the angle objects, None marking zero slots."""
    out = []
    for o in a.objects:
        if o.is_zero:
            out.append(None)
        elif o.is_indec:
            out.append(o.summands[0])
        else:
            out.append(tuple(o.summands))
    return out
