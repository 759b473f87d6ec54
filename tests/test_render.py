"""Text and SVG renderings of grids and decorated permutations."""

import re

import pytest
from hypothesis import assume, given

from flagpipes.decperm import decperm_of, parse_decperm
from flagpipes.perm import bruhat_leq
from flagpipes.pipedream import construct_fpp
from flagpipes.render import ascii_grid, svg_grid, unicode_decperm

from conftest import permutation_pairs

PATHS_PER_TILE = {"P": 1, "E": 2, "X": 2, "H": 1, "V": 1, ".": 0}


class TestAscii:
    @given(permutation_pairs(max_n=5))
    def test_plain_is_the_grid(self, uv):
        u, v = uv
        assume(bruhat_leq(u, v))
        D = construct_fpp(u, v)
        assert ascii_grid(D) == "\n".join(D.grid)

    def test_goldens(self):
        assert ascii_grid(construct_fpp((1, 2, 3), (3, 1, 2))) == (
            "PEE\n.PX\n..P")


class TestSvg:
    def test_two_strand_golden(self):
        svg = svg_grid(construct_fpp((1, 2), (2, 1)))
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<path") == 4

    @given(permutation_pairs(max_n=5))
    def test_path_count_follows_tiles(self, uv):
        u, v = uv
        assume(bruhat_leq(u, v))
        D = construct_fpp(u, v)
        svg = svg_grid(D)
        want = sum(PATHS_PER_TILE[t] for row in D.grid for t in row)
        assert svg.count("<path") == want
        assert svg.count("<rect") == len(D.pivots) * D.cols

    def test_pivot_class_once_per_row(self, running_example):
        svg = svg_grid(running_example.dream)
        assert svg.count('class="pivot"') == len(running_example.dream.pivots)

    def test_cell_size_scales_viewbox(self):
        D = construct_fpp((1, 2, 3), (3, 2, 1))
        assert 'viewBox="0 0 30 30"' in svg_grid(D, cell=10)
        assert 'viewBox="0 0 72 72"' in svg_grid(D)


class TestUnicode:
    def test_marks(self):
        assert unicode_decperm(parse_decperm("2o1u")) == "2̄1̲"

    def test_commas_past_nine(self):
        w = parse_decperm(",".join(f"{i}o" for i in range(1, 11)))
        out = unicode_decperm(w)
        assert out.count(",") == 9
        assert out.split(",")[0] == "1̄"

    @given(permutation_pairs(max_n=5))
    def test_strips_to_plain_string(self, uv):
        u, v = uv
        assume(bruhat_leq(u, v))
        w = decperm_of(construct_fpp(u, v))
        plain = re.sub("[̲̄]", "", unicode_decperm(w))
        assert plain.replace(",", "") == "".join(str(x) for x in w.perm)
