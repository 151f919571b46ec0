"""What one forward pass computes, piece by piece."""
import numpy as np

from advalstm.model import ModelDims, classify, forward, head_forward, init_params
from advalstm.synthetic import make_regime_examples

rng = np.random.default_rng(0)
dims = ModelDims(feat_dim=11, map_size=6, hidden_size=6, att_size=6)
params = init_params(dims, rng)
print("parameter vector length:", params.flat.size)

x, y = make_regime_examples(4, lag=7, seed=2)
trace = forward(x, params)

# stage 1: each day's 11 features -> tanh feature mapping (batch, lag, map)
print("mapped inputs:", trace.m.shape)

# stage 2: an LSTM walks the window, writing each hidden state into
# (batch, lag, hidden) as it goes
print("hidden states:", trace.lstm.h.shape)

# stage 3: attention scores each day and mixes the hidden states;
# weights are a proper distribution over the window
print("attention weights per example (rows sum to 1):")
print(np.array2string(trace.att.weights, precision=3, suppress_small=True))
print("row sums:", trace.att.weights.sum(axis=-1))

# stage 4: the latent representation concatenates the attention mix
# with the final hidden state, and a linear head scores it
print("representation:", trace.e.shape, "= [attention mix ; last hidden]")
print("confidence:", np.array2string(trace.yhat, precision=4))
print("predicted movement:", classify(trace.yhat), "true labels:", y.astype(int))

# the head is just a dot product, so confidences are easy to reason about
manual = trace.e @ params.w_head + params.b_head
print("head recomputed manually, max diff:", float(np.max(np.abs(manual - trace.yhat))))
print("same thing via head_forward:",
      bool(np.array_equal(head_forward(trace.e, params), manual)))

# an untrained model is indifferent: with zero parameters every day gets
# the same attention and the confidence is exactly zero
flat = forward(x, params.zeros_like())
print("zero-parameter attention is uniform:",
      bool(np.allclose(flat.att.weights, 1.0 / x.shape[1])))
print("zero-parameter confidence:", flat.yhat)
