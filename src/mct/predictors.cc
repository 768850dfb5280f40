#include "mct/predictors.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "ml/gradient_boosting.hh"
#include "ml/hierarchical_bayes.hh"
#include "ml/lasso.hh"
#include "ml/linear_regression.hh"
#include "ml/offline_predictor.hh"
#include "ml/quadratic_features.hh"

namespace mct
{

std::string
toString(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Offline:
        return "offline";
      case PredictorKind::Linear:
        return "linear model, no regularization";
      case PredictorKind::LinearLasso:
        return "linear model, lasso regularization";
      case PredictorKind::Quadratic:
        return "quadratic model, no regularization";
      case PredictorKind::QuadraticLasso:
        return "quadratic model, lasso regularization";
      case PredictorKind::GradientBoosting:
        return "gradient boosting";
      case PredictorKind::HierBayes:
        return "hierarchical Bayesian model";
    }
    return "unknown";
}

std::string
predictorTag(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Offline:
        return "offline";
      case PredictorKind::Linear:
        return "linear";
      case PredictorKind::LinearLasso:
        return "lasso";
      case PredictorKind::Quadratic:
        return "quad";
      case PredictorKind::QuadraticLasso:
        return "qlasso";
      case PredictorKind::GradientBoosting:
        return "gbt";
      case PredictorKind::HierBayes:
        return "hb";
    }
    return "unknown";
}

const std::vector<PredictorKind> &
allPredictorKinds()
{
    static const std::vector<PredictorKind> kinds = {
        PredictorKind::Offline,
        PredictorKind::Linear,
        PredictorKind::LinearLasso,
        PredictorKind::Quadratic,
        PredictorKind::QuadraticLasso,
        PredictorKind::GradientBoosting,
        PredictorKind::HierBayes,
    };
    return kinds;
}

bool
needsOfflineData(PredictorKind kind)
{
    return kind == PredictorKind::Offline ||
           kind == PredictorKind::HierBayes;
}

ml::Matrix
encodeSpace(const std::vector<MellowConfig> &space)
{
    ml::Matrix x(space.size(), configDims);
    for (std::size_t r = 0; r < space.size(); ++r) {
        const ml::Vector v = configToVector(space[r]);
        for (std::size_t c = 0; c < configDims; ++c)
            x(r, c) = v[c];
    }
    return x;
}

namespace
{

ml::Matrix
gatherRows(const ml::Matrix &x, const std::vector<std::size_t> &idx)
{
    ml::Matrix out(idx.size(), x.cols());
    for (std::size_t r = 0; r < idx.size(); ++r)
        for (std::size_t c = 0; c < x.cols(); ++c)
            out(r, c) = x(idx[r], c);
    return out;
}

void
validate(const TrainData &data, PredictorKind kind)
{
    if (!data.space || data.space->empty())
        mct_fatal("predictAllConfigs: no configuration space");
    if (!needsOfflineData(kind) &&
        (data.sampleIdx.size() != data.sampleY.size() ||
         data.sampleIdx.empty())) {
        mct_fatal("predictAllConfigs: bad samples");
    }
    if (needsOfflineData(kind)) {
        if (!data.library)
            mct_fatal(toString(kind), " needs offline library data");
        if (data.library->cols() != data.space->size())
            mct_fatal("library column count must match the space");
    }
    for (auto i : data.sampleIdx) {
        if (i >= data.space->size())
            mct_fatal("sample index out of range");
    }
}

/**
 * Fold a weight vector over the (possibly quadratic-expanded) design
 * onto the base configuration dimensions: linear terms map directly,
 * squares map to their dimension, and cross terms split evenly
 * between their two participants. Magnitudes only — the attribution
 * answers "which knobs mattered", not the sign of their effect.
 */
ml::Vector
foldToBaseFeatures(const ml::Vector &w, std::size_t d)
{
    ml::Vector out(d, 0.0);
    std::size_t j = 0;
    for (; j < w.size() && j < d; ++j)
        out[j] += std::abs(w[j]);
    for (; j < w.size() && j < 2 * d; ++j)
        out[j - d] += std::abs(w[j]);
    for (std::size_t i = 0; i < d && j < w.size(); ++i)
        for (std::size_t k = i + 1; k < d && j < w.size(); ++k, ++j) {
            out[i] += 0.5 * std::abs(w[j]);
            out[k] += 0.5 * std::abs(w[j]);
        }
    return out;
}

} // namespace

ml::Vector
predictAllConfigs(PredictorKind kind, const TrainData &data)
{
    return predictAllConfigsDetailed(kind, data).values;
}

Prediction
predictAllConfigsDetailed(PredictorKind kind, const TrainData &data)
{
    validate(data, kind);
    const auto &space = *data.space;
    Prediction out;
    out.model = toString(kind);

    switch (kind) {
      case PredictorKind::Offline: {
        ml::OfflinePredictor model;
        model.fit(*data.library);
        out.values = model.predictAll();
        return out;
      }
      case PredictorKind::HierBayes: {
        ml::HierarchicalBayesPredictor model;
        model.fitOffline(*data.library);
        ml::Vector variance;
        out.values = model.inferWithVariance(data.sampleIdx,
                                             data.sampleY, &variance);
        out.uncertainty.resize(variance.size());
        for (std::size_t c = 0; c < variance.size(); ++c)
            out.uncertainty[c] =
                variance[c] > 0.0 ? std::sqrt(variance[c]) : 0.0;
        return out;
      }
      case PredictorKind::Linear:
      case PredictorKind::LinearLasso: {
        const ml::Matrix xAll = encodeSpace(space);
        const ml::Matrix xs = gatherRows(xAll, data.sampleIdx);
        if (kind == PredictorKind::Linear) {
            ml::LinearRegression model(0.0);
            model.fit(xs, data.sampleY);
            out.values = model.predictAll(xAll);
            out.attribution =
                foldToBaseFeatures(model.weights(), configDims);
            return out;
        }
        ml::LassoRegression model;
        model.fit(xs, data.sampleY);
        out.values = model.predictAll(xAll);
        out.attribution =
            foldToBaseFeatures(model.coefficients(), configDims);
        return out;
      }
      case PredictorKind::Quadratic:
      case PredictorKind::QuadraticLasso: {
        const ml::QuadraticFeatureMap qmap(configDimNames());
        const ml::Matrix xAll = qmap.expandAll(encodeSpace(space));
        const ml::Matrix xs = gatherRows(xAll, data.sampleIdx);
        if (kind == PredictorKind::Quadratic) {
            ml::LinearRegression model(0.0);
            model.fit(xs, data.sampleY);
            out.values = model.predictAll(xAll);
            out.attribution =
                foldToBaseFeatures(model.weights(), configDims);
            return out;
        }
        ml::LassoRegression model;
        model.fit(xs, data.sampleY);
        out.values = model.predictAll(xAll);
        out.attribution =
            foldToBaseFeatures(model.coefficients(), configDims);
        return out;
      }
      case PredictorKind::GradientBoosting: {
        const ml::Matrix xAll = encodeSpace(space);
        const ml::Matrix xs = gatherRows(xAll, data.sampleIdx);
        ml::GradientBoosting model;
        model.fit(xs, data.sampleY);
        ml::GradientBoosting::Staged staged = model.predictStaged(xAll);
        out.values = std::move(staged.values);
        out.uncertainty = std::move(staged.spread);
        out.attribution = model.featureImportance();
        if (out.attribution.size() < configDims)
            out.attribution.resize(configDims, 0.0);
        return out;
      }
    }
    mct_panic("unreachable predictor kind");
}

} // namespace mct
