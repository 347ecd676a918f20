#include "satori/linalg/matrix.hpp"

#include <algorithm>

#include "satori/common/logging.hpp"

namespace satori {
namespace linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

void
Matrix::reshape(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

void
Matrix::growSquare()
{
    SATORI_ASSERT(rows_ == cols_);
    const std::size_t n = rows_;
    const std::size_t m = n + 1;
    if (m * m > data_.capacity())
        data_.reserve(std::max(m * m, 2 * data_.capacity()));
    // resize zero-fills the new tail, which holds the whole new last
    // row: no row move below reaches it. Widen the rows back to front:
    // row i moves right by i slots, so each destination only overlaps
    // rows that have already moved.
    data_.resize(m * m);
    double* d = data_.data();
    for (std::size_t i = n; i-- > 1;)
        std::copy_backward(d + i * n, d + i * n + n, d + i * m + n);
    for (std::size_t i = 0; i < n; ++i)
        d[i * m + n] = 0.0;
    rows_ = cols_ = m;
}

double
dot(const std::vector<double>& a, const std::vector<double>& b)
{
    SATORI_ASSERT(a.size() == b.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        sum += a[i] * b[i];
    return sum;
}

} // namespace linalg
} // namespace satori
