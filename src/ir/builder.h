/**
 * @file
 * IrBuilder: append-only construction interface over a Module used by the
 * lowering stage and by tests. Keeps a stack of insertion regions so
 * structured nodes (ifs/loops) can be built inside-out.
 */
#ifndef GSOPT_IR_BUILDER_H
#define GSOPT_IR_BUILDER_H

#include <vector>

#include "ir/ir.h"

namespace gsopt::ir {

/** Builder for Module bodies. */
class IrBuilder
{
  public:
    explicit IrBuilder(Module &module);

    Module &module() { return module_; }

    // -- region management ---------------------------------------------
    /** Switch insertion to @p region (push). */
    void pushRegion(Region *region);
    /** Return to the previous region (pop). */
    void popRegion();

    // -- structured nodes -----------------------------------------------
    /** Append an IfNode and return it (regions empty). */
    IfNode *createIf(Instr *cond);
    /** Append a LoopNode and return it. */
    LoopNode *createLoop();

    // -- instructions ----------------------------------------------------
    /** Generic emit into the current trailing block. */
    Instr *emit(Opcode op, Type type, std::vector<Instr *> operands = {},
                Var *var = nullptr, std::vector<int> indices = {});

    Instr *constFloat(double v);
    Instr *constInt(long v);
    Instr *constBool(bool v);
    /** Vector constant: type + one lane value per component. */
    Instr *constVec(Type type, std::vector<double> lanes);
    /** Splat a scalar constant to a vector type. */
    Instr *constSplat(Type type, double v);

    Instr *load(Var *var);
    Instr *store(Var *var, Instr *value);
    Instr *loadElem(Var *var, Instr *index);
    Instr *storeElem(Var *var, Instr *index, Instr *value);

    Instr *binary(Opcode op, Instr *a, Instr *b);
    Instr *unary(Opcode op, Instr *a);
    Instr *select(Instr *cond, Instr *t, Instr *f);
    Instr *construct(Type type, std::vector<Instr *> parts);
    Instr *extract(Instr *vec, int index);
    Instr *insert(Instr *vec, Instr *scalar, int index);
    Instr *swizzle(Instr *vec, std::vector<int> indices);

  private:
    /** The trailing Block of the current region (created on demand). */
    Block *currentBlock();

    Module &module_;
    std::vector<Region *> regions_;
};

} // namespace gsopt::ir

#endif // GSOPT_IR_BUILDER_H
