"""Train the same model twice, with and without adversarial examples,
and look at what changes: margins, head norm, and the loss curve."""
import numpy as np

from advalstm.model import ModelDims, classify, forward
from advalstm.evaluation import accuracy
from advalstm.synthetic import make_regime_examples
from advalstm.training import TrainConfig, train

# one dataset, sliced: the regime direction is drawn once per seed, so
# train and test must come from the same call
x, y = make_regime_examples(3000, lag=5, seed=1, signal=0.5, noise=1.0)
x_tr, y_tr = x[:2000], y[:2000]
x_te, y_te = x[2000:], y[2000:]
dims = ModelDims(feat_dim=11, map_size=8, hidden_size=8, att_size=8)

results = {}
for mode, beta in (("normal", 0.0), ("adversarial", 1.0)):
    config = TrainConfig(
        mode=mode, l2_coef=0.01, adv_weight=beta, adv_scale=0.1,
        learning_rate=0.01, batch_size=512, epochs=60, seed=0, patience=0,
    )
    result = train(x_tr, y_tr, x[:0], y[:0], dims, config)
    results[mode] = result
    curve = [f"{r.train_loss:.3f}" for r in result.history[::12]]
    print(f"{mode:>12}: mean clean hinge of the epoch's steps, every 12 epochs: "
          f"{' -> '.join(curve)}")

# both modes share the init and batch order (same seed), so differences
# below come from the adversarial term alone
for mode, result in results.items():
    yhat = forward(x_te, result.params).yhat
    acc = accuracy(y_te, classify(yhat))
    w_norm = float(np.linalg.norm(result.params.w_head))
    active = float(np.mean(y_te * yhat < 1.0))
    print(f"{mode:>12}: test acc {acc:.1f}  mean |confidence| {np.mean(np.abs(yhat)):.3f}  "
          f"head norm {w_norm:.2f}  active hinges {active:.0%}")

# the adversarial hinge only rests once margins pass 1 + eps * ||w_head||.
# the model can satisfy that by widening margins or by shrinking the head
# (a smaller ||w_head|| both lowers the bar and blunts the perturbation,
# which is why the attacked accuracy in demo 04 barely moves); here it
# mostly shrinks the head
norm_w = float(np.linalg.norm(results["adversarial"].params.w_head))
print(f"adversarial margin target: 1 + eps * ||w_head|| = {1 + 0.1 * norm_w:.3f}")
