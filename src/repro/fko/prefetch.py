"""PF — software prefetch insertion (section 2.2.3).

"This transformation can prefetch any/all/none of the arrays that are
accessed within the loop, select the type of prefetch instruction to
employ, vary the distance from the current iteration to fetch ahead, as
well as provide various simple scheduling methodologies.  Prefetches
are scheduled within the unrolled loop ...  prefetching one array can
require multiple prefetch requests in the unrolled loop body, as each
x86 prefetch instruction fetches only one cache line of data."

Runs after SV/UR, so the number of prefetches per trip is
``ceil(bytes_consumed_per_trip / line_size)`` per array, spread evenly
through the body so requests interleave with computation.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..errors import TransformError
from ..ir import (Function, Instruction, Mem, Opcode, PrefetchHint, VReg)
from ..obs.core import count as _obs_count
from .params import PrefetchParams


def _comment(array: str, dist: int) -> str:
    return f"pf {array}+{dist}"


def insert_prefetches(fn: Function, prefetch: Dict[str, PrefetchParams],
                      line_size: int) -> int:
    """Insert prefetch instructions for the configured arrays.  Returns
    the number of instructions inserted."""
    loop = fn.loop
    if loop is None:
        raise TransformError(f"{fn.name}: no tuned loop")

    body = fn.block(loop.body[0])
    elem_size = loop.elem.size
    epi = loop.elems_per_iter

    inserted = 0
    plan: List[Instruction] = []
    for array, pf in sorted(prefetch.items()):
        if not pf.enabled:
            continue
        ptr = loop.pointers.get(array)
        if ptr is None:
            raise TransformError(
                f"{fn.name}: prefetch of unknown array {array!r}")
        inc = abs(loop.ptr_incs.get(array, 1)) or 1
        bytes_per_trip = inc * epi * elem_size
        n_pf = max(1, math.ceil(bytes_per_trip / line_size))
        for j in range(n_pf):
            mem = Mem(ptr, loop.elem, disp=pf.dist + j * line_size,
                      array=array)
            plan.append(Instruction(Opcode.PREFETCH, None, (mem,),
                                    hint=pf.hint,
                                    comment=_comment(array, pf.dist)))
        inserted += n_pf

    if not plan:
        return 0

    # spread the prefetches through the body ("simple scheduling"):
    # insert after positions that divide the straight-line prefix of the
    # body evenly — never past a branch (blocks must stay straight-line
    # up to their control transfer)
    work_len = len(body.instrs)
    for i, instr in enumerate(body.instrs):
        if instr.is_branch or instr.is_terminator:
            work_len = i
            break
    step = max(1, work_len // (len(plan) + 1))
    pos = step
    for instr in plan:
        pos = min(pos, work_len)
        body.instrs.insert(pos, instr)
        work_len += 1
        pos += step + 1
    _obs_count("pf.inserted", inserted)
    return inserted


def rebind_prefetches(fn: Function, old: Dict[str, int],
                      new: Dict[str, int]) -> None:
    """Move every prefetch in ``fn`` from its array's distance in
    ``old`` to its distance in ``new``, in place.

    PF runs before the repeatable blocks and register allocation, and
    no later pass reads a prefetch's displacement, so a kernel finished
    at one distance becomes the kernel finished at another by adding
    ``new - old`` to each of its PREFETCH displacements."""
    for block in fn.blocks:
        for instr in block.instrs:
            if instr.op is Opcode.PREFETCH:
                mem = instr.srcs[0]
                dist = new[mem.array]
                instr.srcs = (mem.with_disp(mem.disp + dist
                                            - old[mem.array]),)
                instr.comment = _comment(mem.array, dist)
