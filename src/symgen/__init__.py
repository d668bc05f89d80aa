"""Symmetric generation toolkit.

Builds finite images of involutory progenitors over a control group,
enumerates double cosets into collapsed Cayley graphs, and does arithmetic
on elements written in the short form (control permutation, word in the
symmetric generators).
"""
