#include "nn/metrics.h"

#include <sstream>

#include "util/logging.h"

namespace dpaudit {

ConfusionMatrix::ConfusionMatrix(size_t num_classes)
    : num_classes_(num_classes), counts_(num_classes * num_classes, 0) {
  DPAUDIT_CHECK_GT(num_classes_, 0u);
}

void ConfusionMatrix::Record(size_t true_class, size_t predicted_class) {
  DPAUDIT_CHECK_LT(true_class, num_classes_);
  DPAUDIT_CHECK_LT(predicted_class, num_classes_);
  ++counts_[true_class * num_classes_ + predicted_class];
  ++total_;
}

size_t ConfusionMatrix::count(size_t true_class,
                              size_t predicted_class) const {
  DPAUDIT_CHECK_LT(true_class, num_classes_);
  DPAUDIT_CHECK_LT(predicted_class, num_classes_);
  return counts_[true_class * num_classes_ + predicted_class];
}

double ConfusionMatrix::Accuracy() const {
  if (total_ == 0) return 0.0;
  size_t correct = 0;
  for (size_t c = 0; c < num_classes_; ++c) {
    correct += counts_[c * num_classes_ + c];
  }
  return static_cast<double>(correct) / static_cast<double>(total_);
}

double ConfusionMatrix::Recall(size_t cls) const {
  DPAUDIT_CHECK_LT(cls, num_classes_);
  size_t occurrences = 0;
  for (size_t p = 0; p < num_classes_; ++p) {
    occurrences += counts_[cls * num_classes_ + p];
  }
  if (occurrences == 0) return 0.0;
  return static_cast<double>(counts_[cls * num_classes_ + cls]) /
         static_cast<double>(occurrences);
}

double ConfusionMatrix::Precision(size_t cls) const {
  DPAUDIT_CHECK_LT(cls, num_classes_);
  size_t predictions = 0;
  for (size_t t = 0; t < num_classes_; ++t) {
    predictions += counts_[t * num_classes_ + cls];
  }
  if (predictions == 0) return 0.0;
  return static_cast<double>(counts_[cls * num_classes_ + cls]) /
         static_cast<double>(predictions);
}

double ConfusionMatrix::F1(size_t cls) const {
  double p = Precision(cls);
  double r = Recall(cls);
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

double ConfusionMatrix::MacroF1() const {
  double sum = 0.0;
  size_t present = 0;
  for (size_t cls = 0; cls < num_classes_; ++cls) {
    size_t occurrences = 0;
    for (size_t p = 0; p < num_classes_; ++p) {
      occurrences += counts_[cls * num_classes_ + p];
    }
    if (occurrences == 0) continue;
    sum += F1(cls);
    ++present;
  }
  if (present == 0) return 0.0;
  return sum / static_cast<double>(present);
}

std::string ConfusionMatrix::ToString() const {
  std::ostringstream os;
  os << "true\\pred";
  for (size_t p = 0; p < num_classes_; ++p) os << "\t" << p;
  os << "\n";
  for (size_t t = 0; t < num_classes_; ++t) {
    os << t;
    for (size_t p = 0; p < num_classes_; ++p) {
      os << "\t" << counts_[t * num_classes_ + p];
    }
    os << "\n";
  }
  return os.str();
}

ConfusionMatrix EvaluateConfusion(Network& model,
                                  const std::vector<Tensor>& inputs,
                                  const std::vector<size_t>& labels,
                                  size_t num_classes) {
  DPAUDIT_CHECK_EQ(inputs.size(), labels.size());
  ConfusionMatrix matrix(num_classes);
  const std::vector<size_t> predicted = model.Predictions(inputs);
  for (size_t i = 0; i < inputs.size(); ++i) {
    matrix.Record(labels[i], predicted[i]);
  }
  return matrix;
}

}  // namespace dpaudit
