"""ERNet-to-FBISA compiler.

The compiler lowers a :class:`~repro.nn.network.Network` built from the
FBISA-supported operator vocabulary into a :class:`~repro.fbisa.program.Program`:

* every 3x3 convolution becomes a ``CONV`` instruction (with as many
  leaf-modules / input groups as its channel counts require),
* every ERModule becomes an ``ER`` instruction whose srcS operand realises
  the module's residual connection,
* a convolution followed by a pixel shuffle becomes ``UPX2``; followed by a
  pooling stage it becomes ``DNX2``,
* the global residual connection of the ERNet skeleton is realised by
  keeping the head output parked in one block buffer and accumulating it via
  srcS at the closing (tail) convolution,
* external input/output use the virtual buffers ``DI``/``DO``; intermediate
  features ping-pong between the remaining physical block buffers.

Besides the program, the compiler returns executable *semantics* (the layer
objects backing every instruction) so the hardware model can run a compiled
program functionally and the tests can check program-vs-network equivalence,
and the quantized :class:`~repro.fbisa.params.InstructionParameters` needed
by the bitstream packer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import hotpath
from repro.fbisa.isa import (
    BlockBufferId,
    FeatureOperand,
    InferenceType,
    Instruction,
    LEAF_CHANNELS,
    MAX_LEAF_MODULES,
    Opcode,
    ParameterOperand,
    PoolingMode,
    TILE_HEIGHT,
    TILE_WIDTH,
)
from repro.fbisa.params import InstructionParameters
from repro.fbisa.program import (
    Program,
    ProgramValidationError,
    instruction_violations,
)
from repro.models.ermodule import ERModule
from repro.nn.layers import Conv2d, Layer, ReLU, ClippedReLU, Residual
from repro.nn.network import Sequential
from repro.nn.ops import MaxPool2x2, PixelShuffle, PixelUnshuffle, StridedPool2x2
from repro.nn.tensor import FeatureMap
from repro.quant.qformat import QFormat
from repro.quant.quantize import QuantizationPlan


class CompilerError(ValueError):
    """Raised when a network cannot be lowered to FBISA."""


@dataclass
class InstructionSemantics:
    """The layer objects one instruction stands for (for functional execution)."""

    layers: List[Layer]
    residual: bool = False

    def execute(self, fm: FeatureMap, residual_input: Optional[FeatureMap] = None) -> FeatureMap:
        out = fm
        for layer in self.layers:
            out = layer.forward(out)
        if self.residual:
            source = residual_input if residual_input is not None else fm
            crop_h = (source.height - out.height) // 2
            crop_w = (source.width - out.width) // 2
            skip = source.data[
                :,
                crop_h : source.height - crop_h,
                crop_w : source.width - crop_w,
            ]
            out = out.with_data(out.data + skip)
        return out


@dataclass
class CompiledModel:
    """A compiled model: the program plus executable semantics and parameters."""

    program: Program
    semantics: List[InstructionSemantics]
    parameters: List[Optional[InstructionParameters]]
    input_block: int
    #: ``shared=True`` marks the compiled model of a shared network (see
    #: :func:`repro.hotpath.is_shared`): it is frozen by the same contract,
    #: so config-free analytics may be memoized on it.
    metadata: Dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    @property
    def macs_per_block(self) -> int:
        """MACs the program executes per block (memoized when shared)."""
        return hotpath.MODEL_ANALYTICS.get_if_shared(
            self, "macs-per-block", lambda: self.program.total_macs
        )

    @property
    def parameter_bytes(self) -> int:
        """Raw parameter footprint: one byte per weight and bias code
        (memoized when shared)."""
        return hotpath.MODEL_ANALYTICS.get_if_shared(
            self,
            "parameter-bytes",
            lambda: self.program.total_weights + self.program.total_biases,
        )

    def execute_block(self, block: FeatureMap) -> FeatureMap:
        """Execute the compiled program functionally on one input block.

        Buffer contents are tracked so srcS residual accumulation reads the
        same data the hardware would.
        """
        buffers: dict[BlockBufferId, FeatureMap] = {BlockBufferId.DI: block}
        output: Optional[FeatureMap] = None
        for instruction, semantics in zip(self.program, self.semantics):
            source = buffers.get(instruction.src.buffer)
            if source is None:
                raise CompilerError(
                    f"instruction reads empty buffer {instruction.src.buffer.value}"
                )
            residual_input = None
            if instruction.src_s is not None:
                residual_input = buffers.get(instruction.src_s.buffer)
            result = semantics.execute(source, residual_input)
            if instruction.dst.buffer is BlockBufferId.DO:
                output = result
            else:
                buffers[instruction.dst.buffer] = result
        if output is None:
            raise CompilerError("program never wrote to DO")
        return output


def _tiles(block_pixels_w: int, block_pixels_h: int) -> tuple[int, int]:
    tiles_x = max(1, -(-block_pixels_w // TILE_WIDTH))
    tiles_y = max(1, -(-block_pixels_h // TILE_HEIGHT))
    return tiles_x, tiles_y


def _leaf_modules(out_channels: int) -> int:
    modules = max(1, -(-out_channels // LEAF_CHANNELS))
    if modules > MAX_LEAF_MODULES:
        raise CompilerError(
            f"a layer with {out_channels} output channels needs {modules} leaf-modules; "
            f"FBISA instructions carry at most {MAX_LEAF_MODULES} — split the layer into "
            "128-channel groups accumulated through srcS"
        )
    return modules


def _input_groups(in_channels: int) -> int:
    return max(1, -(-in_channels // LEAF_CHANNELS))


def _quantize_conv(conv: Conv2d, wfmt: QFormat, bfmt: QFormat) -> tuple[np.ndarray, np.ndarray]:
    return wfmt.quantize_to_codes(conv.weights), bfmt.quantize_to_codes(conv.bias)


class _Lowering:
    """Stateful lowering pass over a network's layer list."""

    def __init__(
        self,
        network: Sequential,
        input_block: int,
        plan: Optional[QuantizationPlan],
    ) -> None:
        self.network = network
        self.plan = plan
        self.program = Program(name=getattr(network, "name", "network"))
        self.semantics: List[InstructionSemantics] = []
        self.parameters: List[Optional[InstructionParameters]] = []
        self.block_size = float(input_block)
        self.restart = 0
        self.conv_index = 0
        #: Layers (e.g. a leading pixel unshuffle) folded into the *next*
        #: emitted instruction's input preparation.
        self.pending_pre_layers: List[Layer] = []
        # Physical buffer allocation: the "current" buffer rotates; a buffer
        # can be pinned to hold a long-lived residual source.
        self.current: BlockBufferId = BlockBufferId.DI
        self.pinned: Optional[BlockBufferId] = None
        #: Physical buffers written so far, for eager per-emission validation.
        self._written: set[BlockBufferId] = set()

    # -- buffer management -------------------------------------------------
    def _next_buffer(self) -> BlockBufferId:
        physical = [BlockBufferId.BB0, BlockBufferId.BB1, BlockBufferId.BB2]
        for candidate in physical:
            if candidate != self.current and candidate != self.pinned:
                return candidate
        raise CompilerError("ran out of block buffers during lowering")

    # -- q-format helpers ---------------------------------------------------
    def _formats_for_conv(self) -> tuple[str, str, QFormat, QFormat]:
        if self.plan is not None and self.conv_index < self.plan.num_layers:
            lq = self.plan.layers[self.conv_index]
            return (
                lq.output_format.name,
                lq.weight_format.name,
                lq.weight_format,
                lq.bias_format,
            )
        return "Q6", "Q7", QFormat(7), QFormat(7)

    # -- emission ------------------------------------------------------------
    def _emit(
        self,
        opcode: Opcode,
        semantics: InstructionSemantics,
        *,
        out_channels: int,
        in_channels: int,
        dst: Optional[BlockBufferId] = None,
        src_s: Optional[BlockBufferId] = None,
        pooling: PoolingMode = PoolingMode.STRIDED,
        label: str = "",
        conv_layers: Sequence[Conv2d] = (),
        margin: int = 0,
        scale: float = 1.0,
        inference: InferenceType = InferenceType.TRUNCATED,
    ) -> None:
        out_qformat, weight_qformat, wfmt, bfmt = self._formats_for_conv()
        self.block_size -= 2 * margin
        if self.block_size <= 0:
            raise CompilerError(
                "input block fully consumed during lowering; increase the block size"
            )
        # The block-size attribute (and hence the CIU tile count) is taken at
        # the convolution-output resolution, before any pixel shuffle or
        # pooling post-processing rescales the block.
        tiles_x, tiles_y = _tiles(int(self.block_size), int(self.block_size))
        self.block_size *= scale

        destination = dst if dst is not None else self._next_buffer()
        if self.pending_pre_layers:
            semantics.layers[:0] = self.pending_pre_layers
            self.pending_pre_layers = []
        params = None
        packed = None
        if conv_layers:
            params = ParameterOperand(
                restart=self.restart,
                weight_qformat=weight_qformat,
                bias_qformat=weight_qformat,
            )
            w3 = None
            w1 = None
            biases = []
            for conv in conv_layers:
                codes_w, codes_b = _quantize_conv(conv, wfmt, bfmt)
                if conv.kernel == 3:
                    w3 = codes_w
                else:
                    w1 = codes_w.reshape(conv.out_channels, conv.in_channels)
                biases.append(codes_b)
                self.conv_index += 1
            if w3 is None:
                raise CompilerError("every FBISA instruction needs a 3x3 convolution")
            packed = InstructionParameters(
                weights3x3=w3,
                weights1x1=w1,
                biases=np.concatenate(biases) if biases else np.zeros(0, dtype=np.int64),
            )
            self.restart += packed.biases.size  # byte-aligned bias-stream offset

        instruction = Instruction(
            opcode=opcode,
            block_tiles_x=tiles_x,
            block_tiles_y=tiles_y,
            leaf_modules=_leaf_modules(out_channels),
            input_groups=_input_groups(in_channels),
            inference=inference,
            src=FeatureOperand(self.current, qformat=out_qformat),
            dst=FeatureOperand(destination, qformat=out_qformat),
            src_s=FeatureOperand(src_s, qformat=out_qformat) if src_s is not None else None,
            params=params,
            pooling=pooling,
            label=label,
        )
        # Validate eagerly: a structurally broken instruction fails at its
        # emission point (with index and opcode), not at the end of lowering.
        index = len(self.program.instructions)
        for violation in instruction_violations(index, instruction, self._written):
            raise ProgramValidationError(
                violation.message,
                program=self.program.name,
                index=violation.index,
                opcode=violation.opcode,
            )
        self.program.append(instruction)
        self.semantics.append(semantics)
        self.parameters.append(packed)
        if not destination.is_virtual:
            self._written.add(destination)
        self.current = destination

    def finalize_to_do(self) -> None:
        """Route the last instruction's destination to DO."""
        if not self.program.instructions:
            raise CompilerError("empty program")
        last = self.program.instructions[-1]
        self.program.instructions[-1] = Instruction(
            opcode=last.opcode,
            block_tiles_x=last.block_tiles_x,
            block_tiles_y=last.block_tiles_y,
            leaf_modules=last.leaf_modules,
            input_groups=last.input_groups,
            inference=last.inference,
            src=last.src,
            dst=FeatureOperand(BlockBufferId.DO, qformat=last.dst.qformat),
            src_s=last.src_s,
            dst_s=last.dst_s,
            params=last.params,
            pooling=last.pooling,
            label=last.label,
        )


def compile_network(
    network: Sequential,
    *,
    input_block: int = 128,
    plan: Optional[QuantizationPlan] = None,
) -> CompiledModel:
    """Lower ``network`` into an FBISA program.

    Supports the ERNet skeleton (head conv, global residual of ERModules and
    a tail conv, pixel-shuffle upsamplers, output conv) as well as plain
    conv/pool/shuffle pipelines built from the same operator set.
    """
    lowering = _Lowering(network, input_block, plan)
    _lower_layer_list(lowering, list(network.layers), residual_source=None)
    lowering.finalize_to_do()
    program = lowering.program
    program.validate()
    return CompiledModel(
        program=program,
        semantics=lowering.semantics,
        parameters=lowering.parameters,
        input_block=input_block,
    )


def _lower_layer_list(
    lowering: _Lowering,
    layers: List[Layer],
    residual_source: Optional[BlockBufferId],
) -> None:
    index = 0
    while index < len(layers):
        layer = layers[index]
        following = layers[index + 1] if index + 1 < len(layers) else None

        if isinstance(layer, (ReLU, ClippedReLU, PixelUnshuffle)):
            # ReLU is part of the opcode post-processing; a leading pixel
            # unshuffle re-interprets the DI stream (DnERNet-12ch) and is
            # folded into the next instruction's input preparation.
            if isinstance(layer, PixelUnshuffle):
                lowering.block_size /= layer.factor
                lowering.pending_pre_layers.append(layer)
            index += 1
            continue

        if isinstance(layer, ERModule):
            conv3, conv1 = layer.body[0], layer.body[2]
            # An ER leaf-module is a 32-to-32-channel 3x3 plus the 1x1
            # reduction; the module's expansion ratio Rm therefore maps to Rm
            # leaf-modules in one instruction (which is why both the paper's
            # system bound RE <= 4 and MAX_LEAF_MODULES equal four).
            lowering._emit(
                Opcode.ER,
                InstructionSemantics(layers=list(layer.body), residual=True),
                out_channels=conv3.out_channels,
                in_channels=conv3.in_channels,
                src_s=lowering.current,
                label=layer.name,
                conv_layers=[conv3, conv1],
                margin=1,
            )
            index += 1
            continue

        if isinstance(layer, Residual):
            # Generic residual block (global ERNet residual, SRResNet blocks,
            # recognition blocks): pin the entry buffer, lower the body, and
            # accumulate at the body's last emitted instruction.
            if lowering.current.is_virtual:
                # Residual over DI is not representable; materialise into a
                # physical buffer first with an identity CONV.
                raise CompilerError(
                    "a residual block cannot take its skip directly from DI; "
                    "place a convolution before it"
                )
            entry = lowering.current
            previous_pin = lowering.pinned
            lowering.pinned = entry
            _lower_layer_list(lowering, list(layer.body), residual_source=entry)
            # Mark the last emitted instruction as accumulating the skip.
            last_index = len(lowering.program.instructions) - 1
            last = lowering.program.instructions[last_index]
            if last.src_s is not None:
                raise CompilerError(
                    "the closing instruction of a residual block already uses srcS; "
                    "end residual bodies with a plain convolution"
                )
            lowering.program.instructions[last_index] = Instruction(
                opcode=last.opcode,
                block_tiles_x=last.block_tiles_x,
                block_tiles_y=last.block_tiles_y,
                leaf_modules=last.leaf_modules,
                input_groups=last.input_groups,
                inference=last.inference,
                src=last.src,
                dst=last.dst,
                src_s=FeatureOperand(entry, qformat=last.dst.qformat),
                dst_s=last.dst_s,
                params=last.params,
                pooling=last.pooling,
                label=last.label,
            )
            lowering.semantics[last_index].residual = True
            lowering.pinned = previous_pin
            index += 1
            continue

        if isinstance(layer, Conv2d):
            semantics_layers: List[Layer] = [layer]
            opcode = Opcode.CONV
            margin = layer.margin
            scale = 1.0
            pooling = PoolingMode.STRIDED
            consumed = 1
            if isinstance(following, PixelShuffle):
                opcode = Opcode.UPX2
                semantics_layers.append(following)
                scale = float(following.factor)
                consumed = 2
            elif isinstance(following, (StridedPool2x2, MaxPool2x2)):
                opcode = Opcode.DNX2
                semantics_layers.append(following)
                scale = 0.5
                pooling = (
                    PoolingMode.MAX
                    if isinstance(following, MaxPool2x2)
                    else PoolingMode.STRIDED
                )
                consumed = 2
            # Fold a trailing ReLU into the same instruction.
            after = layers[index + consumed] if index + consumed < len(layers) else None
            if isinstance(after, (ReLU, ClippedReLU)):
                semantics_layers.append(after)
                consumed += 1
            lowering._emit(
                opcode,
                InstructionSemantics(layers=semantics_layers),
                out_channels=layer.out_channels,
                in_channels=layer.in_channels,
                label=layer.name,
                conv_layers=[layer],
                margin=margin,
                scale=scale,
                pooling=pooling,
                inference=(
                    InferenceType.ZERO_PADDED
                    if layer.padding == "zero"
                    else InferenceType.TRUNCATED
                ),
            )
            index += consumed
            continue

        if isinstance(layer, PixelShuffle):
            # A bare pixel shuffle (e.g. DnERNet-12ch output): fold into the
            # previous instruction's post-processing.
            last_index = len(lowering.program.instructions) - 1
            if last_index < 0:
                raise CompilerError("pixel shuffle with no preceding instruction")
            lowering.semantics[last_index].layers.append(layer)
            last = lowering.program.instructions[last_index]
            lowering.program.instructions[last_index] = Instruction(
                opcode=Opcode.UPX2,
                block_tiles_x=last.block_tiles_x,
                block_tiles_y=last.block_tiles_y,
                leaf_modules=last.leaf_modules,
                input_groups=last.input_groups,
                inference=last.inference,
                src=last.src,
                dst=last.dst,
                src_s=last.src_s,
                dst_s=last.dst_s,
                params=last.params,
                pooling=last.pooling,
                label=last.label,
            )
            lowering.block_size *= layer.factor
            index += 1
            continue

        if isinstance(layer, (StridedPool2x2, MaxPool2x2)):
            last_index = len(lowering.program.instructions) - 1
            if last_index < 0:
                raise CompilerError("pooling with no preceding instruction")
            lowering.semantics[last_index].layers.append(layer)
            lowering.block_size *= 0.5
            index += 1
            continue

        if isinstance(layer, Sequential):
            _lower_layer_list(lowering, list(layer.layers), residual_source)
            index += 1
            continue

        raise CompilerError(f"layer kind {type(layer).__name__} is not FBISA-compatible")
