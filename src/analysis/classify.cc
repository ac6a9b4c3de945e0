#include "analysis/classify.h"

#include "common/log.h"

namespace svard::analysis {

void
ConfusionMatrix::add(int64_t actual, int64_t predicted)
{
    ++cells_[{actual, predicted}];
    ++actualCounts_[actual];
    ++predictedCounts_[predicted];
    ++total_;
}

double
ConfusionMatrix::precision(int64_t cls) const
{
    auto pit = predictedCounts_.find(cls);
    if (pit == predictedCounts_.end() || pit->second == 0)
        return 0.0;
    auto cit = cells_.find({cls, cls});
    const uint64_t tp = cit == cells_.end() ? 0 : cit->second;
    return static_cast<double>(tp) / static_cast<double>(pit->second);
}

double
ConfusionMatrix::recall(int64_t cls) const
{
    auto ait = actualCounts_.find(cls);
    if (ait == actualCounts_.end() || ait->second == 0)
        return 0.0;
    auto cit = cells_.find({cls, cls});
    const uint64_t tp = cit == cells_.end() ? 0 : cit->second;
    return static_cast<double>(tp) / static_cast<double>(ait->second);
}

double
ConfusionMatrix::f1(int64_t cls) const
{
    const double p = precision(cls);
    const double r = recall(cls);
    if (p + r == 0.0)
        return 0.0;
    return 2.0 * p * r / (p + r);
}

double
ConfusionMatrix::weightedF1() const
{
    if (total_ == 0)
        return 0.0;
    double acc = 0.0;
    for (const auto &[cls, count] : actualCounts_)
        acc += f1(cls) * static_cast<double>(count);
    return acc / static_cast<double>(total_);
}

double
binaryFeatureF1(const std::vector<uint8_t> &feature,
                const std::vector<int64_t> &classes)
{
    SVARD_ASSERT(feature.size() == classes.size(),
                 "feature/class size mismatch");
    if (feature.empty())
        return 0.0;

    // Majority class per feature value.
    std::map<int64_t, uint64_t> hist[2];
    for (size_t i = 0; i < feature.size(); ++i)
        ++hist[feature[i] ? 1 : 0][classes[i]];
    int64_t majority[2] = {0, 0};
    for (int v = 0; v < 2; ++v) {
        uint64_t best = 0;
        for (const auto &[cls, count] : hist[v]) {
            if (count > best) {
                best = count;
                majority[v] = cls;
            }
        }
        if (hist[v].empty() && !hist[1 - v].empty()) {
            // Feature value never occurs: inherit the other side's
            // majority so the predictor is total.
            for (const auto &[cls, count] : hist[1 - v])
                if (count > best) {
                    best = count;
                    majority[v] = cls;
                }
        }
    }

    ConfusionMatrix cm;
    for (size_t i = 0; i < feature.size(); ++i)
        cm.add(classes[i], majority[feature[i] ? 1 : 0]);
    return cm.weightedF1();
}

} // namespace svard::analysis
