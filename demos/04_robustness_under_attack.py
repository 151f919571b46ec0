"""How much do predictions degrade when someone nudges the latent
representation against us?  Sweep the attack radius and compare a
normally trained model with an adversarially trained one."""
import numpy as np

from advalstm.evaluation import accuracy, mcc, rpd
from advalstm.model import ModelDims, classify
from advalstm.synthetic import make_regime_examples
from advalstm.training import TrainConfig, attacked_confidences, train

x, y = make_regime_examples(3000, lag=5, seed=4, signal=0.5, noise=1.0)
x_tr, y_tr = x[:2000], y[:2000]
x_te, y_te = x[2000:], y[2000:]
dims = ModelDims(feat_dim=11, map_size=8, hidden_size=8, att_size=8)

models = {}
for mode, beta in (("normal", 0.0), ("adversarial", 1.0)):
    config = TrainConfig(
        mode=mode, l2_coef=0.01, adv_weight=beta, adv_scale=0.5,
        learning_rate=0.01, batch_size=512, epochs=60, seed=0, patience=0,
    )
    models[mode] = train(x_tr, y_tr, x[:0], y[:0], dims, config).params

# the attack re-derives the worst-case perturbation against each model,
# so this is a fair white-box comparison at every radius.  The head is
# linear, so the attack lowers every margin y*yhat below 1 by
# eps*||w_head||: it flips exactly the rows with
# 0 <= y*yhat < min(1, eps*||w_head||), and the accuracy drop in points
# equals that at-risk share.  Once eps*||w_head|| >= 1 every such row has
# flipped, and a larger radius removes nothing more.
def at_risk_pct(clean, y, shift):
    margin = y * clean
    return 100.0 * float(np.mean((margin >= 0.0) & (margin < min(1.0, shift))))


print(f"{'':>8} | {'normal':^34} | {'adversarial':^34}".rstrip())
print(f"{'radius':>8} | " + " | ".join([f"{'acc':>6} {'drop':>5} {'rpd':>7} {'e|w|':>6} {'risk':>6}"] * 2))
for eps in (0.0, 0.1, 0.25, 0.5, 1.0):
    cells = []
    for mode in ("normal", "adversarial"):
        clean, attacked = attacked_confidences(x_te, y_te, models[mode], eps)
        acc_clean = accuracy(y_te, classify(clean))
        acc_att = accuracy(y_te, classify(attacked))
        drop = rpd(acc_clean, acc_att)
        shift = eps * float(np.linalg.norm(models[mode].w_head))
        cells.append(f"{acc_att:>6.1f} {acc_clean - acc_att:>5.1f} "
                     f"{0.0 if drop is None else drop:>+7.3f} {shift:>6.3f} "
                     f"{at_risk_pct(clean, y_te, shift):>6.1f}")
    print(f"{eps:>8} | " + " | ".join(cells))
print("drop = clean minus attacked accuracy, in points; e|w| = eps * ||w_head||;")
print("risk = share (%) of rows with 0 <= y*yhat < min(1, e|w|), which the attack flips")

# same story in MCC terms at the training radius
for mode in ("normal", "adversarial"):
    clean, attacked = attacked_confidences(x_te, y_te, models[mode], 0.5)
    m_clean, m_att = mcc(y_te, classify(clean)), mcc(y_te, classify(attacked))
    print(f"{mode:>12}: clean mcc {m_clean:.3f} attacked {m_att:.3f} rpd {rpd(m_clean, m_att):+.3f}")
