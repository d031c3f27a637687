"""Drawn expressions of the input grammar at n = 2, m = 2, shared by the
parser fuzzers."""

import hypothesis.strategies as st

FUZZ_ORDER = 2
# atoms of the grammar at n = 2, m = 2, with a few out of range or order
LEAVES = (st.integers(0, 12).map(str)
          | st.sampled_from(["x1", "x2", "x3", "u", "v", "u_1", "v_2", "u_12", "v_21",
                             "u_x", "v_y", "u_xy", "u_122", "dx1", "dx2", "w(u)",
                             "w(v,1)", "w(u,12)", "w(u,xy)", "dy(u)", "dy(v,2)",
                             "dy(u,11)", "ds", "ds(1)", "ds(2)", "ds(1,2)"]))


def _expressions(children):
    return (children.map("({})".format)
            | st.tuples(st.sampled_from(["-", "+", "- ", "--"]), children).map("".join)
            | st.tuples(children, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}")
            | st.tuples(children, st.sampled_from(["+", " - ", "*", "/", " /\\ "]),
                        children).map("".join))


EXPRESSION = st.recursive(LEAVES, _expressions, max_leaves=10)
