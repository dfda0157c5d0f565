#include "nn/network.h"

#include <algorithm>
#include <sstream>

#include "nn/activations.h"
#include "nn/channel_norm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "tensor/tensor.h"
#include "util/env.h"
#include "util/logging.h"

namespace dpaudit {

Network& Network::Add(std::unique_ptr<Layer> layer) {
  DPAUDIT_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

void Network::Initialize(Rng& rng) {
  for (auto& layer : layers_) layer->Initialize(rng);
}

Network Network::Clone() const {
  Network copy;
  for (const auto& layer : layers_) copy.Add(layer->Clone());
  return copy;
}

size_t Network::NumParams() const {
  size_t n = 0;
  for (const auto& layer : layers_) {
    for (const Tensor* p : const_cast<Layer&>(*layer).Params()) {
      n += p->size();
    }
  }
  return n;
}

const Tensor& Network::ForwardLanes(const Tensor* const* inputs,
                                    size_t lanes, GradientWorkspace* ws) {
  DPAUDIT_CHECK_GT(lanes, 0u);
  DPAUDIT_CHECK_LE(lanes, kMaxBatchLanes);
  DPAUDIT_CHECK(!layers_.empty());
  PackLanes(inputs, lanes, &ws->lane_input);
  ws->lane_acts.resize(layers_.size());
  const Tensor* cur = &ws->lane_input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ForwardBatchInto(*cur, lanes, &ws->lane_acts[i]);
    cur = &ws->lane_acts[i];
  }
  return *cur;
}

Tensor Network::Forward(const Tensor& input) {
  const Tensor* in = &input;
  Tensor logits;
  UnpackLane(ForwardLanes(&in, 1, &scratch_), 0, &logits);
  return logits;
}

double Network::ExampleLoss(const Tensor& input, size_t label) {
  Tensor logits = Forward(input);
  return SoftmaxCrossEntropy(logits, label).loss;
}

namespace {

size_t ArgMax(const Tensor& logits) {
  DPAUDIT_CHECK_GT(logits.size(), 0u);
  size_t best = 0;
  for (size_t i = 1; i < logits.size(); ++i) {
    if (logits[i] > logits[best]) best = i;
  }
  return best;
}

}  // namespace

size_t Network::Predict(const Tensor& input) { return ArgMax(Forward(input)); }

std::vector<Tensor> Network::Logits(const std::vector<Tensor>& inputs) {
  // A ragged last pack is padded with copies of its last input, as in the
  // gradient engine: lanes are independent, so padding changes no logit.
  constexpr size_t kLanes = kDefaultBatchLanes;
  std::vector<Tensor> logits(inputs.size());
  const Tensor* pack[kLanes];
  for (size_t j = 0; j < inputs.size(); j += kLanes) {
    const size_t count = std::min(kLanes, inputs.size() - j);
    for (size_t l = 0; l < kLanes; ++l) {
      pack[l] = &inputs[j + std::min(l, count - 1)];
    }
    const Tensor& packed = ForwardLanes(pack, kLanes, &scratch_);
    for (size_t l = 0; l < count; ++l) UnpackLane(packed, l, &logits[j + l]);
  }
  return logits;
}

std::vector<size_t> Network::Predictions(const std::vector<Tensor>& inputs) {
  const std::vector<Tensor> logits = Logits(inputs);
  std::vector<size_t> classes(logits.size());
  for (size_t i = 0; i < logits.size(); ++i) classes[i] = ArgMax(logits[i]);
  return classes;
}

double Network::Accuracy(const std::vector<Tensor>& inputs,
                         const std::vector<size_t>& labels) {
  DPAUDIT_CHECK_EQ(inputs.size(), labels.size());
  DPAUDIT_CHECK(!inputs.empty());
  const std::vector<size_t> predicted = Predictions(inputs);
  size_t correct = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (predicted[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(inputs.size());
}

void Network::LaneGradientsInto(const Tensor* const* inputs,
                                const size_t* labels, size_t lanes,
                                GradientWorkspace* ws) {
  const Tensor& logits = ForwardLanes(inputs, lanes, ws);
  SoftmaxCrossEntropyBatchInto(logits, labels, lanes, &ws->grad_a);
  const Tensor* gcur = &ws->grad_a;
  Tensor* gnext = &ws->grad_b;
  Tensor* gspare = &ws->grad_a;
  for (size_t i = layers_.size(); i-- > 0;) {
    // Layer 0's input gradient would be discarded; skip computing it.
    layers_[i]->BackwardBatchInto(*gcur, lanes, i == 0 ? nullptr : gnext);
    if (i == 0) break;
    gcur = gnext;
    std::swap(gnext, gspare);
  }
  ws->lane_grads.clear();
  ws->lane_grad_ranges.clear();
  size_t range = 0;
  for (const auto& layer : layers_) {
    const size_t first = ws->lane_grads.size();
    layer->AppendLaneGrads(&ws->lane_grads);
    if (ws->lane_grads.size() == first) continue;  // parameterless
    ws->lane_grad_ranges.resize(ws->lane_grads.size(), range++);
  }
}

std::vector<float> Network::PerExampleGradient(const Tensor& input,
                                               size_t label) {
  const Tensor* in = &input;
  LaneGradientsInto(&in, &label, 1, &scratch_);
  std::vector<float> grad;
  grad.reserve(NumParams());
  for (const LaneGradBlock& block : scratch_.lane_grads) {
    for (size_t r = 0; r < block.num_rows; ++r) {
      for (size_t c = 0; c < block.num_cols; ++c) {
        grad.push_back(block.rows[r] * block.cols[c]);
      }
    }
  }
  return grad;
}

std::vector<Network::ParamRange> Network::LayerParamRanges() const {
  std::vector<ParamRange> ranges;
  size_t offset = 0;
  for (const auto& layer : layers_) {
    size_t layer_size = 0;
    for (Tensor* p : const_cast<Layer&>(*layer).Params()) {
      layer_size += p->size();
    }
    if (layer_size > 0) ranges.push_back({offset, layer_size});
    offset += layer_size;
  }
  return ranges;
}

std::vector<float> Network::FlatParams() const {
  std::vector<float> flat;
  flat.reserve(NumParams());
  for (const auto& layer : layers_) {
    for (Tensor* p : const_cast<Layer&>(*layer).Params()) {
      flat.insert(flat.end(), p->vec().begin(), p->vec().end());
    }
  }
  return flat;
}

void Network::SetFlatParams(const std::vector<float>& flat) {
  DPAUDIT_CHECK_EQ(flat.size(), NumParams());
  size_t offset = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->Params()) {
      std::copy(flat.begin() + offset, flat.begin() + offset + p->size(),
                p->vec().begin());
      offset += p->size();
    }
  }
}

void Network::ApplyGradientStep(const std::vector<float>& flat_gradient,
                                double lr) {
  DPAUDIT_CHECK_EQ(flat_gradient.size(), NumParams());
  size_t offset = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->Params()) {
      float* data = p->data();
      for (size_t i = 0; i < p->size(); ++i) {
        data[i] -= static_cast<float>(lr * flat_gradient[offset + i]);
      }
      offset += p->size();
    }
  }
}

std::string Network::Describe() const {
  std::ostringstream os;
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) os << " -> ";
    os << layers_[i]->Name();
  }
  return os.str();
}

Network BuildMnistNetwork(size_t image_size, size_t conv1_filters,
                          size_t conv2_filters, size_t num_classes) {
  DPAUDIT_CHECK_GE(image_size, 12u);
  Network net;
  net.Add(std::make_unique<Conv2d>(1, conv1_filters, 3));
  net.Add(std::make_unique<ChannelNorm>(conv1_filters));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<MaxPool2d>(2));
  net.Add(std::make_unique<Conv2d>(conv1_filters, conv2_filters, 3));
  net.Add(std::make_unique<ChannelNorm>(conv2_filters));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<MaxPool2d>(2));
  size_t s1 = (image_size - 2) / 2;  // after conv1 + pool
  size_t s2 = (s1 - 2) / 2;          // after conv2 + pool
  net.Add(std::make_unique<Dense>(conv2_filters * s2 * s2, num_classes));
  return net;
}

Network BuildPurchaseNetwork(size_t input_features, size_t hidden_units,
                             size_t num_classes) {
  Network net;
  net.Add(std::make_unique<Dense>(input_features, hidden_units));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(hidden_units, num_classes));
  return net;
}

}  // namespace dpaudit
