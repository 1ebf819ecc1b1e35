"""Exact counting of shortest corner-to-corner walks on tiled 1xn and 2xn boards.

Three mutually cross-validating routes for every sequence: brute-force
enumeration over tilings, coupled linear recurrences, and Fibonacci /
Q(sqrt5) closed forms.
"""

__version__ = "0.1.0"
