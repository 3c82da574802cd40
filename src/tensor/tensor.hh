/**
 * @file
 * A minimal dense float tensor used as the numerical substrate for the
 * functional simulator and the golden reference operators. Row-major
 * storage, NCHW convention for 4-D activations, (Co, Ci, Kh, Kw) for
 * convolution weights.
 */

#ifndef RAPID_TENSOR_TENSOR_HH
#define RAPID_TENSOR_TENSOR_HH

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace rapid {

/** Dense row-major float tensor of rank 1-4. */
class Tensor
{
  public:
    Tensor() = default;

    explicit Tensor(std::vector<int64_t> shape);

    Tensor(std::initializer_list<int64_t> shape)
        : Tensor(std::vector<int64_t>(shape))
    {
    }

    const std::vector<int64_t> &shape() const { return shape_; }
    int64_t rank() const { return int64_t(shape_.size()); }
    int64_t dim(int64_t i) const;
    int64_t numel() const { return numel_; }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    std::vector<float> &storage() { return data_; }
    const std::vector<float> &storage() const { return data_; }

    float &operator[](int64_t i);
    float operator[](int64_t i) const;

    /** Rank-2 element access. */
    float &at(int64_t i, int64_t j);
    float at(int64_t i, int64_t j) const;

    /** Rank-4 element access (NCHW). */
    float &at(int64_t n, int64_t c, int64_t h, int64_t w);
    float at(int64_t n, int64_t c, int64_t h, int64_t w) const;

    /** Fill with N(mean, stddev) draws from @p rng. */
    void fillGaussian(Rng &rng, double mean = 0.0, double stddev = 1.0);

    /** Kaiming-style init: stddev = sqrt(2 / fan_in). */
    void fillKaiming(Rng &rng, int64_t fan_in);

    /** Elementwise transform in place. */
    template <typename F>
    void
    apply(F &&fn)
    {
        for (auto &v : data_)
            v = fn(v);
    }

  private:
    int64_t flatIndex2(int64_t i, int64_t j) const;
    int64_t flatIndex4(int64_t n, int64_t c, int64_t h, int64_t w) const;

    std::vector<int64_t> shape_;
    int64_t numel_ = 0;
    std::vector<float> data_;
};

// The element accessors are inline so hot loops in every module pay no
// call. rapid_assert checks run in every build; rapid_bounds_check
// runs under -DRAPID_BOUNDS_CHECK=ON and in debug builds.

inline int64_t
Tensor::dim(int64_t i) const
{
    rapid_assert(i >= 0 && i < rank(), "dim ", i, " out of rank ", rank());
    return shape_[size_t(i)];
}

inline float &
Tensor::operator[](int64_t i)
{
    rapid_assert(i >= 0 && i < numel_, "flat index ", i, " out of ",
                 numel_);
    return data_[size_t(i)];
}

inline float
Tensor::operator[](int64_t i) const
{
    rapid_assert(i >= 0 && i < numel_, "flat index ", i, " out of ",
                 numel_);
    return data_[size_t(i)];
}

inline int64_t
Tensor::flatIndex2(int64_t i, int64_t j) const
{
    rapid_assert(rank() == 2, "rank-2 access on rank-", rank());
    rapid_bounds_check(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
                       "index (", i, ",", j, ") out of shape (", shape_[0],
                       ",", shape_[1], ")");
    return i * shape_[1] + j;
}

inline float &
Tensor::at(int64_t i, int64_t j)
{
    return data_[size_t(flatIndex2(i, j))];
}

inline float
Tensor::at(int64_t i, int64_t j) const
{
    return data_[size_t(flatIndex2(i, j))];
}

inline int64_t
Tensor::flatIndex4(int64_t n, int64_t c, int64_t h, int64_t w) const
{
    rapid_assert(rank() == 4, "rank-4 access on rank-", rank());
    rapid_bounds_check(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1]
                           && h >= 0 && h < shape_[2] && w >= 0
                           && w < shape_[3],
                       "index (", n, ",", c, ",", h, ",", w,
                       ") out of shape (", shape_[0], ",", shape_[1], ",",
                       shape_[2], ",", shape_[3], ")");
    return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
}

inline float &
Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w)
{
    return data_[size_t(flatIndex4(n, c, h, w))];
}

inline float
Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w) const
{
    return data_[size_t(flatIndex4(n, c, h, w))];
}

/** Relative L2 distance ||a - b|| / (||b|| + eps). */
double relativeL2(const Tensor &a, const Tensor &b);

} // namespace rapid

#endif // RAPID_TENSOR_TENSOR_HH
