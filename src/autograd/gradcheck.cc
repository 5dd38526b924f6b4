#include "autograd/gradcheck.h"

#include <cmath>
#include <sstream>

#include "tensor/tensor_ops.h"

namespace elda {
namespace ag {

bool CheckGradients(const std::function<Variable()>& f,
                    const std::vector<Variable>& params,
                    const GradCheckOptions& options, std::string* error) {
  // Analytic pass.
  for (const Variable& p : params) {
    ELDA_CHECK(p.requires_grad()) << "gradcheck param without requires_grad";
    const_cast<Variable&>(p).ZeroGrad();
  }
  Variable out = f();
  ELDA_CHECK_EQ(out.value().size(), 1) << "gradcheck target must be scalar";
  out.Backward();

  std::vector<Tensor> analytic;
  analytic.reserve(params.size());
  for (const Variable& p : params) {
    analytic.push_back(p.has_grad() ? p.grad().Clone()
                                    : Tensor::Zeros(p.value().shape()));
  }

  // Numeric pass per (subsampled) element.
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Variable p = params[pi];
    Tensor* v = p.mutable_value();
    const int64_t n = v->size();
    int64_t stride = 1;
    if (options.max_elements_per_param > 0 &&
        n > options.max_elements_per_param) {
      stride = (n + options.max_elements_per_param - 1) /
               options.max_elements_per_param;
    }
    for (int64_t i = 0; i < n; i += stride) {
      const float original = (*v)[i];
      (*v)[i] = original + options.epsilon;
      const float f_plus = f().value()[0];
      (*v)[i] = original - options.epsilon;
      const float f_minus = f().value()[0];
      (*v)[i] = original;
      const float numeric = (f_plus - f_minus) / (2.0f * options.epsilon);
      const float analytic_value = analytic[pi][i];
      const float diff = std::fabs(analytic_value - numeric);
      // Negated so a NaN analytic or numeric gradient fails.
      if (!(diff <= options.atol + options.rtol * std::fabs(numeric))) {
        if (error != nullptr) {
          std::ostringstream msg;
          msg << "gradient mismatch at param " << pi << " element " << i
              << ": analytic=" << analytic_value << " numeric=" << numeric
              << " (diff=" << diff << ")";
          *error = msg.str();
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace ag
}  // namespace elda
