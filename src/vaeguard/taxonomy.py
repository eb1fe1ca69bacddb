"""Tracked syscall taxonomy.

Kernel events commonly audited for security incident analysis, grouped
into ten activity classes. The tracked set holds 66 base syscall names,
the keys the activity-vector schema uses. Names are matched exactly: an
ABI variant such as `__x64_sys_openat` is not folded into its base name.

Lookup is total: any name outside the tracked set classifies as UNTRACKED.
"""

from __future__ import annotations

import enum


class SyscallCategory(enum.Enum):
    PROCESS = "process"
    SET_USER_ID = "set_user_id"
    NETWORK = "network"
    FILE_DIR_ACCESS = "file_dir_access"
    KERNEL_MODULE = "kernel_module"
    VIRTUALIZATION = "virtualization"
    FD_REPLICATION = "fd_replication"
    FILE_ATTRIBUTE = "file_attribute"
    FS_MOUNT = "fs_mount"
    IOCTL = "ioctl"
    UNTRACKED = "untracked"


# Category values the activity vector carries, in schema order.
TRACKED_CATEGORIES: tuple[SyscallCategory, ...] = (
    SyscallCategory.PROCESS,
    SyscallCategory.SET_USER_ID,
    SyscallCategory.NETWORK,
    SyscallCategory.FILE_DIR_ACCESS,
    SyscallCategory.KERNEL_MODULE,
    SyscallCategory.VIRTUALIZATION,
    SyscallCategory.FD_REPLICATION,
    SyscallCategory.FILE_ATTRIBUTE,
    SyscallCategory.FS_MOUNT,
    SyscallCategory.IOCTL,
)

_CATEGORY_MEMBERS: dict[SyscallCategory, tuple[str, ...]] = {
    SyscallCategory.PROCESS: (
        "fork",
        "vfork",
        "execve",
        "execveat",
        "exit",
        "kill",
        "ptrace",
        "prctl",
        "arch_prctl",
    ),
    SyscallCategory.SET_USER_ID: (
        "setuid",
        "setgid",
        "setpgid",
        "setsid",
        "setreuid",
        "setregid",
        "setgroups",
        "setresuid",
        "setresgid",
        "setfsuid",
        "setfsgid",
    ),
    SyscallCategory.NETWORK: (
        "socket",
        "connect",
        "accept",
        "bind",
        "listen",
        "accept4",
    ),
    SyscallCategory.FILE_DIR_ACCESS: (
        "open",
        "close",
        "openat",
        "mkdir",
        "rmdir",
        "rename",
        "creat",
        "link",
        "unlink",
        "symlink",
        "mknod",
        "mkdirat",
        "mknodat",
        "unlinkat",
        "renameat",
        "linkat",
        "symlinkat",
        "fchmodat",
        "renameat2",
    ),
    SyscallCategory.KERNEL_MODULE: (
        "create_module",
        "init_module",
        "delete_module",
        "kexec_load",
    ),
    SyscallCategory.VIRTUALIZATION: (
        "clone",
        "clone3",
        "process_vm_readv",
        "process_vm_writev",
    ),
    SyscallCategory.FD_REPLICATION: (
        "dup",
        "dup2",
        "dup3",
    ),
    SyscallCategory.FILE_ATTRIBUTE: (
        "chmod",
        "fchmod",
        "chown",
        "fchown",
        "lchown",
        "fchownat",
    ),
    SyscallCategory.FS_MOUNT: (
        "mount",
        "umount2",
        "fsmount",
    ),
    SyscallCategory.IOCTL: ("ioctl",),
}

# name -> category, fixed at import time, identical across runs
SYSCALL_TAXONOMY: dict[str, SyscallCategory] = {
    name: category
    for category, names in _CATEGORY_MEMBERS.items()
    for name in names
}

# Alphabetical schema key order for the per-syscall count features.
TRACKED_SYSCALLS: tuple[str, ...] = tuple(sorted(SYSCALL_TAXONOMY))


def classify_syscall(name: str) -> SyscallCategory:
    """Map a syscall name to its activity class; unknown names are UNTRACKED."""
    return SYSCALL_TAXONOMY.get(name, SyscallCategory.UNTRACKED)
