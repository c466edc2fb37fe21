"""LSTM cells (paper §5.1 / §5.2).

:class:`LSTMCell` is the standard Hochreiter–Schmidhuber cell used by
CD-GCN over per-vertex feature sequences (window ``w = 1``: state and
output depend on the previous state, current input and previous output).

EvolveGCN applies the *same* recurrence to the GCN weight matrices
instead of vertex features (§5.2, EGCN-O): ``W_t = LSTM(W_{t-1})`` where
the cell's hidden state *is* the evolving weight matrix.
:class:`WeightLSTMCell` implements that specialization: input size =
hidden size = the weight's column count, and the rows of the weight act
as the batch dimension.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Module, Parameter, Tensor, functional as F, init

__all__ = ["LSTMCell", "WeightLSTMCell", "lstm_flops"]


def lstm_flops(rows: int, input_size: int, hidden_size: int) -> float:
    """FLOPs of one cell application over ``rows`` independent rows."""
    return 2.0 * rows * 4 * hidden_size * (input_size + hidden_size)


class LSTMCell(Module):
    """One step of an LSTM over a batch of row vectors.

    State is the pair ``(h, c)``; gates follow the standard layout
    ``[i, f, g, o]``.  The forget-gate bias starts at 1.0 (common
    practice; keeps early training stable).
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(
            init.xavier_uniform((input_size, 4 * hidden_size), rng),
            name="lstm.w_ih")
        self.w_hh = Parameter(
            init.orthogonal((hidden_size, 4 * hidden_size), rng),
            name="lstm.w_hh")
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias, name="lstm.bias")

    def init_state(self, rows: int) -> tuple[Tensor, Tensor]:
        h = Tensor(np.zeros((rows, self.hidden_size)))
        c = Tensor(np.zeros((rows, self.hidden_size)))
        return h, c

    def forward(self, x: Tensor,
                state: tuple[Tensor, Tensor]) -> tuple[Tensor,
                                                       tuple[Tensor, Tensor]]:
        h, c = F.lstm_cell(x, *state, self.w_ih, self.w_hh, self.bias)
        return h, (h, c)

    def run_sequence(self, xs: list[Tensor],
                     state: tuple[Tensor, Tensor] | None = None
                     ) -> tuple[list[Tensor], tuple[Tensor, Tensor]]:
        """Apply the cell along a list of frames; returns outputs + state."""
        if state is None:
            state = self.init_state(xs[0].shape[0])
        outs: list[Tensor] = []
        for x in xs:
            y, state = self.forward(x, state)
            outs.append(y)
        return outs, state

    def flops(self, rows: int) -> float:
        return lstm_flops(rows, self.input_size, self.hidden_size)


class WeightLSTMCell(Module):
    """EvolveGCN's recurrence over a GCN weight matrix (EGCN-O).

    The evolving ``F × F'`` weight is fed as both the input and the
    hidden state: rows are the batch, columns the feature dimension.
    ``forward`` returns the next weight ``W_t = h_t``.
    """

    def __init__(self, cols: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.cols = cols
        self.cell = LSTMCell(cols, cols, rng)

    def init_state(self, weight: Tensor) -> tuple[Tensor, Tensor]:
        """Hidden state starts at the initial weight, cell memory at 0."""
        c = Tensor(np.zeros(weight.shape))
        return weight, c

    def forward(self, state: tuple[Tensor, Tensor]
                ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        w_prev, _ = state
        return self.cell.forward(w_prev, state)

    def flops(self, rows: int) -> float:
        return self.cell.flops(rows)
