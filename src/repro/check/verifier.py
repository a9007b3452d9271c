"""Static plan verification: abstract interpretation of networks and programs.

The paper's execution model makes almost every failure mode statically
decidable: FBISA programs are compiled once and replayed for every block of
every frame on fixed SRAM/bandwidth budgets, so a shape mismatch, a
Q-format that always saturates, a block that cannot be resident in a block
buffer or an instruction whose output nobody reads is knowable *before* a
single pixel is served.  This module decides them:

``verify_network(network, input_block=...)``
    Per-layer shape/dataflow inference at the block size the plan will run
    (ECNN101/102) plus input-block residency against the hardware
    configuration (ECNN120/122).

``verify_program(program, ...)``
    Per-instruction structural dataflow (ECNN110-114, shared with
    :meth:`~repro.fbisa.program.Program.validate`), operand Q-format parsing
    (ECNN150), block-buffer capacity per stored operand (ECNN120/122),
    raw-parameter footprint against the parameter memory (ECNN121) and
    dead-code detection (ECNN140).

``verify_plan(plan, ...)``
    Everything above for a backend's :class:`~repro.api.results.CompiledPlan`,
    plus the checks that need the compiled semantics: Q-format interval
    analysis through each instruction's layer stack (ECNN130/131) and
    unused parameter segments (ECNN141).

Config-free vs config-bound.  Of the program checks, only block-buffer
capacity (ECNN120/122) and the parameter-memory footprint (ECNN121) depend
on the :class:`~repro.hw.config.EcnnConfig`; structural dataflow, operand
Q-formats, dead code, interval analysis and parameter segments are a pure
function of the compiled model.  ``verify_plan`` computes that config-free
half once per compiled model of a *shared* network per process (the
``verifier-findings`` hot-path memo, stored on the model next to the
``fbisa-compilations`` entry it came from) and re-runs the config-bound
half — including :func:`verify_network` — on every call.  The memoized
entry also carries the config-free inputs of the capacity and
parameter-memory checks (each instruction's stored footprint, the raw
parameter bytes), so per call only their comparison against the
configuration runs.  The report is the same either way: same diagnostics,
same order.

Capacity model (ECNN120).  A block buffer stores one 32-channel group
(:class:`repro.hw.blockbuffer.BlockBuffer`), so the per-operand bound is
``stored_pixels * 32 bytes <= block_buffer_kb * 1024`` where
``stored_pixels`` is the block's pixel count *as stored*: pixel shuffle
(UPX2) trades channels for pixels byte-neutrally, pooling (DNX2) quarters
the pixels.  Stages downstream of an upsampler are normalized back to base
scale (the hardware streams upsampled tails toward DO at output rate; the
residency constraint binds at the truncated-pyramid body, which is how the
paper sizes the 128-pixel block against 512 KB).  Zero-padded whole-image
instructions (the recognition case study) are exempt and surfaced as a
single ECNN122 info: that mode streams row bands, not resident blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro import hotpath
from repro.check.diagnostics import CheckReport, Diagnostic
from repro.fbisa.compiler import CompiledModel, InstructionSemantics
from repro.fbisa.isa import InferenceType, Instruction, Opcode
from repro.fbisa.program import Program
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.nn.layers import (
    AddBias,
    ClippedReLU,
    Conv2d,
    Layer,
    ReLU,
    Residual,
)
from repro.nn.network import Network, Sequential
from repro.nn.ops import (
    MaxPool2x2,
    PixelShuffle,
    PixelUnshuffle,
    StridedPool2x2,
    ZeroPad,
)
from repro.quant.qformat import QFormat

#: Structural-violation kinds of :mod:`repro.fbisa.program` -> rule ids.
_STRUCTURAL_RULES = {
    "read-before-write": "ECNN110",
    "src-dst-conflict": "ECNN111",
    "virtual-misuse": "ECNN112",
    "no-di-read": "ECNN113",
    "no-do-write": "ECNN114",
}

#: Relative interval overshoot below which ECNN131 stays quiet — one LSB of
#: rounding slack, so exact-fit formats don't produce noise findings.
_CLIP_SLACK = 1e-9

#: Process-level memo of the config-free findings of compiled models of
#: *shared* networks.  Entries live on the
#: :class:`~repro.fbisa.compiler.CompiledModel` itself
#: (:meth:`repro.hotpath.Memo.get_if_shared`); compiled models of fresh
#: (mutable) networks carry no ``shared`` marker and are always re-analysed.
_FINDINGS_MEMO = hotpath.Memo("verifier-findings")


class PlanVerificationError(ValueError):
    """A plan failed static verification; ``report`` holds the diagnostics."""

    def __init__(self, report: CheckReport) -> None:
        super().__init__(report.render(verbose=False))
        self.report = report


# ---------------------------------------------------------------- intervals
def _interval_through_layer(
    layer: Layer, lo: float, hi: float
) -> Optional[Tuple[float, float]]:
    """Propagate a value interval through one layer; ``None`` = unknown op."""
    if isinstance(layer, Conv2d):
        # Per output channel j: out_j in [b_j + pos_j*lo + neg_j*hi,
        # b_j + pos_j*hi + neg_j*lo] with pos/neg the signed weight masses.
        flat = layer.weights.reshape(layer.out_channels, -1)
        pos = np.clip(flat, 0.0, None).sum(axis=1)
        neg = np.clip(flat, None, 0.0).sum(axis=1)
        low = layer.bias + pos * lo + neg * hi
        high = layer.bias + pos * hi + neg * lo
        return float(low.min()), float(high.max())
    if isinstance(layer, ReLU):
        return max(lo, 0.0), max(hi, 0.0)
    if isinstance(layer, ClippedReLU):
        return (
            min(max(lo, 0.0), layer.max_value),
            min(max(hi, 0.0), layer.max_value),
        )
    if isinstance(layer, AddBias):
        return lo + float(layer.bias.min()), hi + float(layer.bias.max())
    if isinstance(layer, ZeroPad):
        # Padding introduces exact zeros into the value population.
        return min(lo, 0.0), max(hi, 0.0)
    if isinstance(layer, (PixelShuffle, PixelUnshuffle, StridedPool2x2, MaxPool2x2)):
        return lo, hi  # pure rearrangement / selection
    if isinstance(layer, Residual):
        body = _interval_through_layers(layer.body, lo, hi)
        if body is None:
            return None
        return body[0] + lo, body[1] + hi
    if isinstance(layer, Sequential):
        return _interval_through_layers(layer.layers, lo, hi)
    return None


def _interval_through_layers(
    layers, lo: float, hi: float
) -> Optional[Tuple[float, float]]:
    interval: Optional[Tuple[float, float]] = (lo, hi)
    for layer in layers:
        if interval is None:
            return None
        interval = _interval_through_layer(layer, *interval)
    return interval


def _parse_qformat(text: str) -> Optional[QFormat]:
    try:
        return QFormat.parse(text)
    except (ValueError, TypeError):
        return None


# ----------------------------------------------------------- network checks
def verify_network(
    network: Network,
    *,
    input_block: Optional[int] = None,
    in_channels: Optional[int] = None,
    config: EcnnConfig = DEFAULT_CONFIG,
) -> CheckReport:
    """Statically check a network at the block size it will execute.

    Walks the layer list propagating the ``(channels, height, width)`` shape
    (ECNN101 on a rejected shape, ECNN102 when the truncated-pyramid margins
    consume the block) and checks the input block's single-buffer residency
    (ECNN120, or ECNN122 info for zero-padded whole-image networks).

    ``in_channels`` overrides the input channel count for bare
    :class:`~repro.nn.network.Sequential` stacks that don't declare one
    (a :class:`~repro.nn.network.Network` carries it).
    """
    block = int(input_block) if input_block else config.default_input_block
    channels = (
        int(in_channels)
        if in_channels is not None
        else int(getattr(network, "in_channels", 3))
    )
    name = getattr(network, "name", type(network).__name__)
    report = CheckReport(subject=f"network:{name}@{block}")

    cap_pixels = config.block_buffer_kb * 1024 // config.leaf_channels
    if block * block > cap_pixels:
        # Networks that never shrink (margin 0 everywhere) run zero-padded
        # whole-image inference — residency is streamed, not resident.
        whole_image = getattr(network, "margin", None) == 0
        if whole_image:
            report.add(
                "ECNN122",
                f"input block {block}x{block} exceeds one block buffer "
                f"({cap_pixels} pixels per 32-channel group); zero-padded "
                "whole-image execution streams row bands instead",
            )
        else:
            report.add(
                "ECNN120",
                f"input block {block}x{block} = {block * block} pixels does "
                f"not fit one block buffer ({cap_pixels} pixels per "
                f"32-channel group at {config.block_buffer_kb} KB)",
            )

    layers = list(getattr(network, "layers", []))
    shape = (channels, block, block)
    for index, layer in enumerate(layers):
        label = getattr(layer, "name", "") or type(layer).__name__
        try:
            shape = layer.output_shape(*shape)
        except ValueError as exc:
            report.add(
                "ECNN101",
                str(exc),
                location=f"layer {index} ({label})",
            )
            return report
        if shape[1] <= 0 or shape[2] <= 0:
            report.add(
                "ECNN102",
                f"block shrinks to {shape[1]}x{shape[2]} pixels; a "
                f"{block}-pixel input block is fully consumed by the "
                "truncated-pyramid margins",
                location=f"layer {index} ({label})",
            )
            return report
    return report


# ----------------------------------------------------------- program checks
def _stored_geometry(instruction: Instruction) -> Tuple[int, float]:
    """(stored pixels, scale factor this instruction applies to the stream).

    The instruction's block attribute describes the *convolution output*;
    UPX2's pixel shuffle then trades channels for 4x the pixels
    (byte-neutral per group) and DNX2's pooling quarters them.
    """
    pixels = instruction.block_width * instruction.block_height
    if instruction.opcode is Opcode.UPX2:
        return pixels * 4, 2.0
    if instruction.opcode is Opcode.DNX2:
        return pixels // 4, 0.5
    return pixels, 1.0


def _check_operand_formats(
    report: CheckReport, index: int, instruction: Instruction
) -> None:
    operands = [("src", instruction.src), ("dst", instruction.dst)]
    if instruction.src_s is not None:
        operands.append(("srcS", instruction.src_s))
    if instruction.dst_s is not None:
        operands.append(("dstS", instruction.dst_s))
    for role, operand in operands:
        if _parse_qformat(operand.qformat) is None:
            report.add(
                "ECNN150",
                f"{role} operand carries unparseable Q-format "
                f"{operand.qformat!r}",
                location=f"line {index} ({instruction.opcode.value})",
            )


def _stored_footprints(program: Program) -> Tuple[float, ...]:
    """Each instruction's stored pixels per 32-channel group, at base scale."""
    footprints = []
    scale = 1.0
    for instruction in program:
        pixels, factor = _stored_geometry(instruction)
        scale *= factor
        # Upsampled tails stream toward DO at output rate; residency binds
        # at base scale, so normalize the footprint back down.
        footprints.append(pixels / max(1.0, scale) ** 2)
    return tuple(footprints)


def _check_capacity(
    report: CheckReport,
    program: Program,
    footprints: Tuple[float, ...],
    config: EcnnConfig,
) -> None:
    cap_pixels = config.block_buffer_kb * 1024 // config.leaf_channels
    streamed_over = 0
    for index, normalized in enumerate(footprints):
        if normalized <= cap_pixels:
            continue
        instruction = program.instructions[index]
        if instruction.inference is InferenceType.ZERO_PADDED:
            streamed_over += 1
            continue
        report.add(
            "ECNN120",
            f"stores {instruction.block_width}x{instruction.block_height} "
            f"pixels ({int(normalized)} at base scale) per 32-channel group; "
            f"one {config.block_buffer_kb} KB block buffer holds "
            f"{cap_pixels}",
            location=f"line {index} ({instruction.opcode.value})",
        )
    if streamed_over:
        report.add(
            "ECNN122",
            f"{streamed_over} zero-padded instruction(s) exceed single-buffer "
            "residency; zero-padded whole-image mode streams row bands, so "
            "no static bound applies",
        )


def _check_parameter_memory(
    report: CheckReport, raw_bytes: int, config: EcnnConfig
) -> None:
    memory = config.parameter_memory_bytes
    if raw_bytes > memory:
        report.add(
            "ECNN121",
            f"raw parameters are {raw_bytes / 1024:.0f} KB against a "
            f"{config.parameter_memory_kb} KB parameter memory; the model "
            f"fits only if entropy coding reaches {raw_bytes / memory:.2f}x",
        )


def _dead_instructions(program: Program) -> List[int]:
    """Indices whose primary output is overwritten or never consumed."""
    unread: dict = {}
    dead: List[int] = []
    for index, instruction in enumerate(program):
        for operand in (instruction.src, instruction.src_s):
            if operand is not None and not operand.buffer.is_virtual:
                unread.pop(operand.buffer, None)
        for operand in (instruction.dst, instruction.dst_s):
            if operand is None or operand.buffer.is_virtual:
                continue  # DO is the consumer of record
            if operand.buffer in unread:
                dead.append(unread[operand.buffer])
            unread[operand.buffer] = index
    dead.extend(unread.values())
    return sorted(set(dead))


@dataclass(frozen=True)
class _Findings:
    """The config-free diagnostics of one program, in report order.

    They sit on either side of the config-bound capacity checks
    (ECNN120-122), which :func:`_report_program` slots in between, and
    carry the config-free inputs of those checks.
    """

    #: Structural dataflow (ECNN110-114) and operand Q-formats (ECNN150).
    head: Tuple[Diagnostic, ...]
    #: Dead code (ECNN140); for a compiled model also ECNN130/131/141.
    tail: Tuple[Diagnostic, ...]
    #: An empty program stops at ECNN113/114: no capacity or dead-code checks.
    empty: bool
    #: Per-instruction stored footprint at base scale (see :func:`_stored_footprints`).
    footprints: Tuple[float, ...] = ()


def _program_findings(program: Program) -> _Findings:
    """Structural dataflow, operand Q-formats and dead code of ``program``."""
    head = CheckReport(subject=program.name)
    for violation in program.structural_violations():
        if violation.kind == "empty":
            head.add("ECNN113", violation.message)
            head.add("ECNN114", violation.message)
            return _Findings(head=tuple(head.diagnostics), tail=(), empty=True)
        location = ""
        if violation.index is not None and violation.opcode is not None:
            location = f"line {violation.index} ({violation.opcode.value})"
        head.add(_STRUCTURAL_RULES[violation.kind], violation.message, location=location)
    for index, instruction in enumerate(program):
        _check_operand_formats(head, index, instruction)
    tail = CheckReport(subject=program.name)
    for index in _dead_instructions(program):
        instruction = program.instructions[index]
        tail.add(
            "ECNN140",
            f"output in {instruction.dst.buffer.value} is overwritten or "
            "never consumed",
            location=f"line {index} ({instruction.opcode.value})",
        )
    return _Findings(
        head=tuple(head.diagnostics),
        tail=tuple(tail.diagnostics),
        empty=False,
        footprints=_stored_footprints(program),
    )


def _report_program(
    report: CheckReport,
    program: Program,
    findings: _Findings,
    parameter_bytes: int,
    config: EcnnConfig,
) -> None:
    """Add ``findings`` to ``report`` with the config-bound checks slotted in.

    ``parameter_bytes`` is the program's raw parameter footprint (8-bit
    weight and bias codes).
    """
    report.diagnostics.extend(findings.head)
    if not findings.empty:
        _check_capacity(report, program, findings.footprints, config)
        _check_parameter_memory(report, parameter_bytes, config)
    report.diagnostics.extend(findings.tail)


def verify_program(
    program: Program,
    *,
    config: EcnnConfig = DEFAULT_CONFIG,
) -> CheckReport:
    """Statically check one FBISA program against a hardware configuration.

    Structural dataflow (ECNN110-114), operand Q-formats (ECNN150), stored
    block-buffer footprints (ECNN120/122), raw parameter footprint
    (ECNN121) and dead instructions (ECNN140).
    """
    report = CheckReport(subject=f"program:{program.name}")
    _report_program(
        report,
        program,
        _program_findings(program),
        program.total_weights + program.total_biases,
        config,
    )
    return report


# ------------------------------------------------------------- plan checks
def _check_intervals(
    report: CheckReport,
    program: Program,
    semantics: List[InstructionSemantics],
) -> None:
    """ECNN130/131: Q-format interval analysis per instruction.

    The input interval of every instruction is its source operand's full
    Q-format range — block buffers hold 8-bit codes of that format by
    construction, so the bound is sound without whole-program fixpointing.
    """
    for index, (instruction, sem) in enumerate(zip(program, semantics)):
        src_fmt = _parse_qformat(instruction.src.qformat)
        dst_fmt = _parse_qformat(instruction.dst.qformat)
        if src_fmt is None or dst_fmt is None:
            continue  # ECNN150 already reported
        interval = _interval_through_layers(
            sem.layers, src_fmt.min_value, src_fmt.max_value
        )
        if interval is None:
            continue
        lo, hi = interval
        if sem.residual:
            skip = instruction.src_s if instruction.src_s is not None else instruction.src
            skip_fmt = _parse_qformat(skip.qformat)
            if skip_fmt is None:
                continue
            lo += skip_fmt.min_value
            hi += skip_fmt.max_value
        location = f"line {index} ({instruction.opcode.value})"
        if lo > dst_fmt.max_value or hi < dst_fmt.min_value:
            report.add(
                "ECNN130",
                f"value interval [{lo:.3g}, {hi:.3g}] lies entirely outside "
                f"{dst_fmt.name}'s range [{dst_fmt.min_value:.3g}, "
                f"{dst_fmt.max_value:.3g}]; every output saturates",
                location=location,
            )
        elif (
            hi > dst_fmt.max_value + _CLIP_SLACK
            or lo < dst_fmt.min_value - _CLIP_SLACK
        ):
            report.add(
                "ECNN131",
                f"value interval [{lo:.3g}, {hi:.3g}] exceeds {dst_fmt.name}'s "
                f"range [{dst_fmt.min_value:.3g}, {dst_fmt.max_value:.3g}]; "
                "out-of-range values clip",
                location=location,
            )


def _check_parameter_segments(report: CheckReport, model: CompiledModel) -> None:
    dead = set(_dead_instructions(model.program))
    for index, (instruction, packed) in enumerate(
        zip(model.program, model.parameters)
    ):
        location = f"line {index} ({instruction.opcode.value})"
        if packed is not None and instruction.params is None:
            report.add(
                "ECNN141",
                "a parameter segment is packed but the instruction declares "
                "no parameter operand; the bytes are unreachable",
                location=location,
            )
        elif instruction.params is not None and index in dead:
            report.add(
                "ECNN141",
                "parameter segment belongs to a dead instruction",
                location=location,
            )


def _model_findings(model: CompiledModel) -> _Findings:
    """Every config-free finding of a compiled model (see :class:`_Findings`)."""
    findings = _program_findings(model.program)
    tail = CheckReport(subject=model.program.name)
    _check_intervals(tail, model.program, model.semantics)
    _check_parameter_segments(tail, model)
    return replace(findings, tail=findings.tail + tuple(tail.diagnostics))


def _plan_case_study(plan) -> Optional[str]:
    metadata = getattr(plan.network, "metadata", {}) or {}
    value = metadata.get("case_study")
    return str(value) if value is not None else None


def _plan_input_block(plan, config: EcnnConfig) -> int:
    """The block size a plan executes at (mirrors the ecnn backend's choice
    for plans whose backend is not block-based and reports 0)."""
    if plan.input_block:
        return plan.input_block
    case = _plan_case_study(plan)
    if case == "recognition":
        return plan.spec.width
    from repro.hw.performance import recommended_input_block

    return recommended_input_block(plan.network, config)


def verify_plan(
    plan,
    *,
    config: Optional[EcnnConfig] = None,
) -> CheckReport:
    """Statically verify a backend's :class:`~repro.api.results.CompiledPlan`.

    Always checks the plan's network at its execution block size; plans
    carrying a compiled FBISA payload (the ecnn backend) additionally get
    the full program checks, Q-format interval analysis and parameter-segment
    accounting.  ``config`` defaults to the session configuration the plan
    was compiled under (``DEFAULT_CONFIG`` if unknown); the recognition case
    study is checked against its tripled parameter memory, as evaluated.

    The config-free findings of a shared network's compiled model are
    computed once per process and reused; the config-bound checks run on
    every call.
    """
    base = config if config is not None else DEFAULT_CONFIG
    if _plan_case_study(plan) == "recognition":
        base = base.with_parameter_memory(3 * base.parameter_memory_kb)
    block = _plan_input_block(plan, base)
    report = CheckReport(
        subject=f"{plan.backend}:{plan.model_name}@{plan.spec_name}"
    )
    report.extend(verify_network(plan.network, input_block=block, config=base))
    model = plan.payload
    if isinstance(model, CompiledModel):
        findings = _FINDINGS_MEMO.get_if_shared(model, None, lambda: _model_findings(model))
        _report_program(report, model.program, findings, model.parameter_bytes, base)
    return report
