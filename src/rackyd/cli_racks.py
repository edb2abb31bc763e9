"""Handlers of the set-level rack commands: shelves, racks, quandles, groups
and augmented racks, with no linear algebra.

Each ``cmd_<command>`` returns (exit_code, report_dict or None).
"""

from . import racks
from .cli_io import _emit, _limit_witnesses, _load_json


def cmd_check_rack(args, field):
    shelf = racks.FiniteShelf.from_json_dict(_load_json(args.file))
    rep = racks.check_shelf(shelf)
    report = {
        "is_shelf": rep.is_shelf,
        "is_rack": rep.is_rack,
        "is_quandle": rep.is_quandle,
        "witnesses": _limit_witnesses(rep.witnesses, args.witness_limit),
    }
    return (0 if rep.is_rack else 1), report


def cmd_make_dihedral(args, field):
    shelf = racks.dihedral_quandle(args.n)
    report = {"size": shelf.size, "is_quandle": True}  # proved in dihedral_quandle
    _emit(args, report, "rack", shelf.to_json_dict())
    return 0, report


def cmd_make_conjugation(args, field):
    group = racks.FiniteGroup.from_json_dict(_load_json(args.file))
    shelf = racks.conjugation_rack(group)
    report = {"size": shelf.size, "is_quandle": True}  # proved in conjugation_rack
    _emit(args, report, "rack", shelf.to_json_dict())
    return 0, report


def cmd_inner_augmentation(args, field):
    shelf = racks.FiniteShelf.from_json_dict(_load_json(args.file))
    aug = racks.inner_augmentation(shelf)
    report = {
        "rack_size": aug.size,
        "inner_group_order": aug.group.size,
        "augmented_ok": True,  # proved in inner_augmentation
    }
    _emit(args, report, "augmented_rack", aug.to_json_dict())
    return 0, report


def cmd_check_augmented(args, field):
    aug = racks.AugmentedRack.from_json_dict(_load_json(args.file))
    rep = racks.check_augmented(aug)
    report = {"ok": rep.ok, "witness": rep.witness}
    return (0 if rep.ok else 1), report


def cmd_rack_braiding(args, field):
    aug1 = racks.AugmentedRack.from_json_dict(_load_json(args.file))
    aug2 = racks.AugmentedRack.from_json_dict(_load_json(args.file2)) if args.file2 else aug1
    tensor, braid = racks.rack_tensor_and_braiding(aug1, aug2)
    report = {
        "tensor_size": tensor.size,
        "braiding": {f"{x},{y}": list(braid[(x, y)]) for x, y in sorted(braid)},
    }
    code = 0
    if args.file2 is None:
        ybe = racks.rack_braiding_ybe(aug1)
        report["set_level_ybe"] = ybe.ok
        report["witness"] = ybe.witness
        code = 0 if ybe.ok else 1
    _emit(args, report, None, tensor.to_json_dict())
    return code, report
