"""Inputs, golden-output references and kernel-call plans of the benchmarks.

Everything is deterministic (seeded LCG, not ``random``) so cycle counts
and outputs are reproducible run to run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.sim.plan import Plan


def lcg_bytes(count: int, seed: int = 12345) -> List[int]:
    """Deterministic pseudo-random bytes."""
    state = seed & 0x7FFFFFFF
    output = []
    for _ in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        output.append((state >> 16) & 0xFF)
    return output


def lcg_shorts(count: int, seed: int = 54321, span: int = 1 << 15) -> List[int]:
    """Deterministic pseudo-random signed 16-bit values in [-span/2, span/2)."""
    state = seed & 0x7FFFFFFF
    output = []
    for _ in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        output.append(((state >> 12) % span) - span // 2)
    return output


# ---------------------------------------------------------------------------
# Reference implementations (plain Python, exact integer semantics)
# ---------------------------------------------------------------------------

def ref_convolution(src: List[int], width: int, height: int) -> List[int]:
    dst = [0] * (width * height)
    for y in range(1, height - 1):
        for x in range(1, width - 1):
            gx = (
                src[(y - 1) * width + x + 1] - src[(y - 1) * width + x - 1]
                + src[y * width + x + 1] - src[y * width + x - 1]
                + src[(y + 1) * width + x + 1]
                - src[(y + 1) * width + x - 1]
            )
            gy = (
                src[(y + 1) * width + x - 1] - src[(y - 1) * width + x - 1]
                + src[(y + 1) * width + x] - src[(y - 1) * width + x]
                + src[(y + 1) * width + x + 1]
                - src[(y - 1) * width + x + 1]
            )
            value = abs(gx) + abs(gy)
            dst[(y - 1) * width + x - 1] = min(value, 255) & 0xFF
    return dst


def ref_image_add(a: List[int], b: List[int]) -> List[int]:
    return [min(x + y, 255) for x, y in zip(a, b)]


def ref_image_add16(a: List[int], b: List[int]) -> List[int]:
    return [min(x + y, 65535) for x, y in zip(a, b)]


def ref_image_xor(a: List[int], b: List[int]) -> List[int]:
    return [x ^ y for x, y in zip(a, b)]


def ref_translate(
    src: List[int], width: int, height: int, tx: int, ty: int
) -> List[int]:
    dst = [0] * (width * height)
    for y in range(height - ty):
        for x in range(width - tx):
            dst[(y + ty) * width + x + tx] = src[y * width + x]
    return dst


def ref_mirror(src: List[int], width: int, height: int) -> List[int]:
    dst = [0] * (width * height)
    for y in range(height):
        for x in range(width):
            dst[y * width + width - 1 - x] = src[y * width + x]
    return dst


def ref_cmppt(a: List[int], b: List[int]) -> int:
    for x, y in zip(a, b):
        if x != y:
            if x == 2:
                return 1
            if y == 2:
                return -1
            return -1 if x < y else 1
    return 0


def ref_eqntott(terms: List[int], nterms: int, width: int) -> int:
    total = 0

    def row(index: int) -> List[int]:
        return terms[index * width:(index + 1) * width]

    for i in range(nterms - 4):
        left = row(i)
        for offset in (1, 2, 3, 4):
            total += ref_cmppt(left, row(i + offset))
    return total


def ref_dotproduct(a: List[int], b: List[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def ref_blockstage(src: List[int], n: int) -> int:
    total = 0
    for t in range(0, n - 63, 64):
        total += sum(255 - value for value in src[t:t + 64])
    return total


def ref_spmv(
    vals: List[int], cols: List[int], rowptr: List[int],
    x: List[int], nrows: int,
) -> Tuple[List[int], int]:
    """CSR product: the y vector and the summed total."""
    y = [0] * nrows
    total = 0
    for r in range(nrows):
        acc = 0
        for k in range(rowptr[r], rowptr[r + 1]):
            acc += vals[k] * x[cols[k]]
        y[r] = acc
        total += acc
    return y, total


def ref_histogram(src: List[int], bins: int = 256) -> List[int]:
    hist = [0] * bins
    for value in src:
        hist[value] += 1
    return hist


def ref_strided_copy(src: List[int], n: int) -> List[int]:
    return [src[2 * i] for i in range(n)]


def ref_conv2d_rowwalk(
    m: List[int], y: int, w: int, pitch: int = 64
) -> List[int]:
    """The out vector (length ``w``; untouched slots stay zero)."""
    out = [0] * w
    for x in range(1, w - 1):
        acc = (
            m[(y - 1) * pitch + x] + m[y * pitch + x - 1]
            + 2 * m[y * pitch + x] + m[y * pitch + x + 1]
            + m[(y + 1) * pitch + x]
        )
        out[x] = (acc // 6) & 0xFF
    return out


def csr_matrix(
    nrows: int, ncols: int = 128, row_len: int = 8, seed: int = 4242
) -> Tuple[List[int], List[int], List[int]]:
    """A deterministic CSR matrix of ``(vals, cols, rowptr)``.

    Even rows are *banded*: ``row_len`` consecutive columns starting at
    a multiple of four, so the coalesced gather's index-adjacency probe
    passes and the wide copy runs.  Odd rows are *scattered* (every
    other column), so the probe fails and the original loop serves as
    the fallback — both arms of the run-time check execute in one call.
    """
    assert row_len * 2 <= ncols
    vals: List[int] = []
    cols: List[int] = []
    rowptr: List[int] = [0]
    state = seed & 0x7FFFFFFF
    for r in range(nrows):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        if r % 2 == 0:
            start = ((state >> 16) % (ncols - row_len)) & ~3
            row_cols = [start + j for j in range(row_len)]
        else:
            start = (state >> 16) % (ncols - 2 * row_len)
            row_cols = [start + 2 * j for j in range(row_len)]
        for c in row_cols:
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            vals.append(((state >> 12) % 64) - 32)
            cols.append(c)
        rowptr.append(len(cols))
    return vals, cols, rowptr


def eqntott_terms(nterms: int, width: int, seed: int = 777) -> List[int]:
    """Product-term table: 0/1/2 values (2 = don't care) with long equal
    prefixes, like eqntott's bit vectors — comparisons scan deep before
    the early exit fires, so ``cmppt`` dominates the runtime as it did in
    the original program."""
    state = seed
    terms: List[int] = []
    base = []
    for _ in range(width):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        base.append((state >> 16) % 3)
    for t in range(nterms):
        row = list(base)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        # Rows differ only in the last ~10% of the vector.
        tail = max(1, width // 10)
        flip_at = width - 1 - ((state >> 16) % tail)
        row[flip_at] = (row[flip_at] + 1 + t % 2) % 3
        terms.extend(row)
    return terms


# ---------------------------------------------------------------------------
# Kernel-call plans, one recipe per benchmark.  Seeds, sizes and array
# order are the bench anchor's: staging order fixes simulated addresses.
# ---------------------------------------------------------------------------

Recipe = Callable[[int, int], Plan]


def _src_to_dst(entry: str, seed: int, reference, *extra: int) -> Recipe:
    """``entry(src, dst, w, h, *extra)`` over one byte image."""
    def recipe(w: int, h: int) -> Plan:
        src = lcg_bytes(w * h, seed=seed)
        return Plan(
            entry, [("src", 1, src), ("dst", 1, [0] * (w * h))],
            ["src", "dst", w, h, *extra],
            {"dst": reference(src, w, h, *extra)},
        )
    return recipe


def _image_pair(
    entry: str, reference, seeds: Tuple[int, int], width: int = 1,
    scale: int = 1,
) -> Recipe:
    """``entry(dst, a, b, pixels)`` over two images."""
    def recipe(w: int, h: int) -> Plan:
        pixels = w * h
        a, b = ([v * scale for v in lcg_bytes(pixels, seed=seed)]
                for seed in seeds)
        return Plan(
            entry,
            [("dst", width, [0] * pixels), ("a", width, a),
             ("b", width, b)],
            ["dst", "a", "b", pixels], {"dst": reference(a, b)},
        )
    return recipe


def _eqntott(w: int, h: int) -> Plan:
    nterms, term_width = max(h, 4), max(w, 8)
    terms = eqntott_terms(nterms, term_width)
    return Plan(
        "eqntott", [("terms", 2, terms), ("work", 2, [0] * term_width)],
        ["terms", "work", nterms, term_width],
        result=ref_eqntott(terms, nterms, term_width),
    )


def _dotproduct(w: int, h: int) -> Plan:
    a, b = (lcg_shorts(w * h, seed=seed, span=2000) for seed in (77, 88))
    return Plan(
        "dotproduct", [("a", 2, a), ("b", 2, b)], ["a", "b", w * h],
        result=ref_dotproduct(a, b),
    )


def _blockstage(w: int, h: int) -> Plan:
    src = lcg_bytes(w * h, seed=99)
    return Plan(
        "blockstage", [("src", 1, src)], ["src", w * h],
        result=ref_blockstage(src, w * h),
    )


def _spmv_csr(w: int, h: int) -> Plan:
    nrows = max(h, 4)
    vals, cols, rowptr = csr_matrix(nrows)
    x = lcg_shorts(128, seed=4321, span=128)
    y, total = ref_spmv(vals, cols, rowptr, x, nrows)
    return Plan(
        "spmv",
        [("y", 4, [0] * nrows), ("val", 2, vals), ("col", 2, cols),
         ("rowptr", 4, rowptr), ("x", 2, x)],
        ["y", "val", "col", "rowptr", "x", nrows], {"y": y}, total,
    )


def _histogram(w: int, h: int) -> Plan:
    src = lcg_bytes(w * h, seed=17)
    hist = ref_histogram(src)
    return Plan(
        "histogram", [("hist", 4, [0] * 256), ("src", 1, src)],
        ["hist", "src", w * h], {"hist": hist}, hist[0],
    )


def _strided_copy(w: int, h: int) -> Plan:
    src = lcg_bytes(2 * w * h, seed=23)
    return Plan(
        "strided_copy", [("dst", 1, [0] * (w * h)), ("src", 1, src)],
        ["dst", "src", w * h], {"dst": ref_strided_copy(src, w * h)},
    )


def _conv2d_rowwalk(w: int, h: int) -> Plan:
    rows, width = max(h, 3), max(4, min(w, 64))
    m = lcg_bytes(rows * 64, seed=29)
    out = ref_conv2d_rowwalk(m, rows // 2, width)
    return Plan(
        "conv2d_rowwalk", [("m", 1, m), ("out", 1, [0] * width)],
        ["m", "out", rows // 2, width], {"out": out}, out[1],
    )


_RECIPES: Dict[str, Recipe] = {
    "convolution": _src_to_dst("convolve", 12345, ref_convolution),
    "image_add": _image_pair("image_add", ref_image_add, (11, 22)),
    "image_add16": _image_pair(
        "image_add16", ref_image_add16, (33, 44), width=2, scale=257
    ),
    "image_xor": _image_pair("image_xor", ref_image_xor, (11, 22)),
    "translate": _src_to_dst("translate", 55, ref_translate, 8, 4),
    "eqntott": _eqntott,
    "mirror": _src_to_dst("mirror", 66, ref_mirror),
    "dotproduct": _dotproduct,
    "blockstage": _blockstage,
    "spmv_csr": _spmv_csr,
    "histogram": _histogram,
    "strided_copy": _strided_copy,
    "conv2d_rowwalk": _conv2d_rowwalk,
}


def make_plan(name: str, width: int, height: int) -> Plan:
    """Benchmark ``name``'s call on a ``width`` x ``height`` image, with
    the reference outputs it must produce."""
    return _RECIPES[name](width, height)
