"""Form builders that only the tests use: an independent chart formula for
d_H, and the wedge of several factors."""

from jetform.forms import Form, dx, total_derivative_form, wedge


def wedge_all(*forms: Form) -> Form:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def d_H_local(rho: Form) -> Form:
    """The chart formula (-1)^q d_i rho ^ dx^i, applied per total degree."""
    ctx = rho.ctx
    out = Form(ctx)
    by_degree: dict = {}
    for w, c in rho.terms.items():
        by_degree.setdefault(len(w), Form(ctx)).terms[w] = c
    for q, part in by_degree.items():
        for i in range(1, ctx.n + 1):
            out = out + wedge(total_derivative_form(part, i), dx(ctx, i)).scale((-1) ** q)
    return out
