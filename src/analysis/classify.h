/**
 * @file
 * Multi-class confusion matrix and F1 scores, plus the single-bit
 * feature predictor used by the spatial-feature correlation analysis
 * (paper Sec. 5.4.2, Fig. 9, Table 3): each binary spatial feature
 * predicts a row's quantized HC_first class; the feature's F1 score
 * measures how well it explains the class.
 */
#ifndef SVARD_ANALYSIS_CLASSIFY_H
#define SVARD_ANALYSIS_CLASSIFY_H

#include <cstdint>
#include <map>
#include <vector>

namespace svard::analysis {

/** Confusion matrix over arbitrary integer class labels. */
class ConfusionMatrix
{
  public:
    /** Record one (actual, predicted) observation. */
    void add(int64_t actual, int64_t predicted);

    /** Precision of one class: TP / (TP + FP); 0 if never predicted. */
    double precision(int64_t cls) const;

    /** Recall of one class: TP / (TP + FN); 0 if class absent. */
    double recall(int64_t cls) const;

    /** Per-class F1 = harmonic mean of precision and recall. */
    double f1(int64_t cls) const;

    /**
     * Support-weighted average F1 across classes (the standard
     * "weighted F1"), which is what the paper's per-feature score is.
     */
    double weightedF1() const;

    uint64_t total() const { return total_; }

  private:
    // cells_[{actual, predicted}] = count
    std::map<std::pair<int64_t, int64_t>, uint64_t> cells_;
    std::map<int64_t, uint64_t> actualCounts_;
    std::map<int64_t, uint64_t> predictedCounts_;
    uint64_t total_ = 0;
};

/**
 * F1 score of predicting `classes[i]` from the binary `feature[i]`:
 * the predictor maps each feature value (0/1) to the majority class
 * among rows with that value, then the weighted F1 of that prediction
 * is returned. A feature uncorrelated with the class degenerates to a
 * majority-class predictor; a perfectly separating feature scores 1.
 */
double binaryFeatureF1(const std::vector<uint8_t> &feature,
                       const std::vector<int64_t> &classes);

} // namespace svard::analysis

#endif // SVARD_ANALYSIS_CLASSIFY_H
