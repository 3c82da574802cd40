#include "tensor/tensor.hh"

#include <cmath>

namespace rapid {

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape))
{
    rapid_assert(!shape_.empty() && shape_.size() <= 4,
                 "tensor rank must be 1-4, got ", shape_.size());
    numel_ = 1;
    for (int64_t d : shape_) {
        rapid_assert(d > 0, "non-positive tensor dimension ", d);
        numel_ *= d;
    }
    data_.assign(size_t(numel_), 0.0f);
}

void
Tensor::fillGaussian(Rng &rng, double mean, double stddev)
{
    for (auto &v : data_)
        v = float(rng.gaussian(mean, stddev));
}

void
Tensor::fillKaiming(Rng &rng, int64_t fan_in)
{
    rapid_assert(fan_in > 0, "non-positive fan-in");
    fillGaussian(rng, 0.0, std::sqrt(2.0 / double(fan_in)));
}

double
relativeL2(const Tensor &a, const Tensor &b)
{
    rapid_assert(a.numel() == b.numel(), "shape mismatch in relativeL2");
    double num = 0.0, den = 0.0;
    for (int64_t i = 0; i < a.numel(); ++i) {
        double d = double(a[i]) - double(b[i]);
        num += d * d;
        den += double(b[i]) * double(b[i]);
    }
    return std::sqrt(num) / (std::sqrt(den) + 1e-12);
}

} // namespace rapid
